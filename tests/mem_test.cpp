// Tests for the memory substrate: sparse backing store semantics and the
// split-transaction bus timing (queuing, posted writes, latency math).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"

namespace aeep::mem {
namespace {

TEST(MemoryStore, PristineContentIsDeterministic) {
  MemoryStore a, b;
  for (Addr addr = 0; addr < 1024; addr += 8) {
    EXPECT_EQ(a.read_word(addr), b.read_word(addr));
    EXPECT_EQ(a.read_word(addr), MemoryStore::pristine_word(addr));
  }
}

TEST(MemoryStore, PristineContentIsWellMixed) {
  unsigned distinct = 0;
  u64 prev = MemoryStore::pristine_word(0);
  for (Addr addr = 8; addr < 8 * 100; addr += 8) {
    const u64 w = MemoryStore::pristine_word(addr);
    if (w != prev) ++distinct;
    prev = w;
  }
  EXPECT_EQ(distinct, 99u);
}

TEST(MemoryStore, WritesPersist) {
  MemoryStore m;
  m.write_word(0x100, 0xABCD);
  EXPECT_EQ(m.read_word(0x100), 0xABCDu);
  EXPECT_EQ(m.dirty_words(), 1u);
  // Neighbouring words stay pristine.
  EXPECT_EQ(m.read_word(0x108), MemoryStore::pristine_word(0x108));
}

TEST(MemoryStore, LineRoundTrip) {
  MemoryStore m;
  std::vector<u64> in{1, 2, 3, 4, 5, 6, 7, 8};
  m.write_line(0x1000, in);
  std::vector<u64> out(8);
  m.read_line(0x1000, out);
  EXPECT_EQ(in, out);
}

// Differential against a word map: random word writes, 64- and 128-byte
// line writes and reads, and reads of any length at any word, over a small
// window so blocks end up with some words written and some pristine.
TEST(MemoryStore, MatchesAWordMapUnderMixedTraffic) {
  MemoryStore m;
  std::map<Addr, u64> ref;
  const auto ref_read = [&](Addr a) {
    const auto it = ref.find(a);
    return it == ref.end() ? MemoryStore::pristine_word(a) : it->second;
  };
  constexpr Addr kWindow = 4096;
  Xorshift64Star rng(17);
  for (int step = 0; step < 5000; ++step) {
    const u64 line_bytes = 64 << rng.next_below(2);
    const Addr line = rng.next_below(kWindow / line_bytes) * line_bytes;
    std::vector<u64> words(line_bytes / 8);
    switch (rng.next_below(5)) {
      case 0: {
        const Addr a = 8 * rng.next_below(kWindow / 8);
        const u64 v = rng.next();
        m.write_word(a, v);
        ref[a] = v;
        break;
      }
      case 1:
        for (std::size_t i = 0; i < words.size(); ++i) {
          words[i] = rng.next();
          ref[line + 8 * i] = words[i];
        }
        m.write_line(line, words);
        break;
      case 2:
        m.read_line(line, words);
        for (std::size_t i = 0; i < words.size(); ++i)
          ASSERT_EQ(words[i], ref_read(line + 8 * i)) << "step " << step;
        break;
      case 3: {
        const Addr a = 8 * rng.next_below(kWindow / 8);
        ASSERT_EQ(m.read_word(a), ref_read(a)) << "step " << step;
        break;
      }
      case 4: {
        std::vector<u64> span(1 + rng.next_below(20));
        const Addr a = 8 * rng.next_below(kWindow / 8);
        m.read_line(a, span);
        for (std::size_t i = 0; i < span.size(); ++i)
          ASSERT_EQ(span[i], ref_read(a + 8 * i)) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(m.dirty_words(), ref.size()) << "step " << step;
  }
  for (Addr a = 0; a < kWindow + 256; a += 8)
    ASSERT_EQ(m.read_word(a), ref_read(a)) << a;
}

TEST(Bus, ReadLatencyIsAccessPlusTransfer) {
  SplitTransactionBus bus({8, 100});
  // 64B line over an 8B bus = 8 beats; completes at start+100+8.
  EXPECT_EQ(bus.read(0, 0x0, 64), 108u);
  EXPECT_EQ(bus.stats().reads, 1u);
  EXPECT_EQ(bus.stats().bytes_read, 64u);
  EXPECT_EQ(bus.stats().busy_cycles, 8u);
}

TEST(Bus, BackToBackReadsQueue) {
  SplitTransactionBus bus({8, 100});
  const Cycle first = bus.read(0, 0x0, 64);
  // Second read at cycle 0 must wait for the 8 busy beats of the first.
  const Cycle second = bus.read(0, 0x40, 64);
  EXPECT_EQ(first, 108u);
  EXPECT_EQ(second, 8 + 100 + 8u);
  EXPECT_EQ(bus.stats().queue_delay_cycles, 8u);
}

TEST(Bus, PostedWritesDelayLaterReads) {
  SplitTransactionBus bus({8, 100});
  bus.write(0, 0x0, 64);  // occupies beats 0..7
  const Cycle read_done = bus.read(0, 0x40, 64);
  EXPECT_EQ(read_done, 8 + 100 + 8u);
  EXPECT_EQ(bus.stats().writes, 1u);
  EXPECT_EQ(bus.stats().bytes_written, 64u);
}

TEST(Bus, IdleBusDoesNotQueue) {
  SplitTransactionBus bus({8, 100});
  bus.read(0, 0x0, 64);
  // By cycle 50 the data beats (0..7) are long done.
  const Cycle second = bus.read(50, 0x40, 64);
  EXPECT_EQ(second, 50 + 100 + 8u);
  EXPECT_EQ(bus.stats().queue_delay_cycles, 0u);
}

TEST(Bus, PartialLineTransfers) {
  SplitTransactionBus bus({8, 100});
  EXPECT_EQ(bus.read(0, 0x0, 8), 101u);   // 1 beat
  EXPECT_EQ(bus.read(200, 0x0, 32), 304u); // 4 beats
}

TEST(Bus, WiderBusFewerBeats) {
  SplitTransactionBus bus({16, 100});
  EXPECT_EQ(bus.read(0, 0x0, 64), 104u);  // 4 beats
}

TEST(Bus, NextFreeReflectsOccupancy) {
  SplitTransactionBus bus({8, 100});
  EXPECT_EQ(bus.next_free(5), 5u);
  bus.write(5, 0x0, 64);
  EXPECT_EQ(bus.next_free(5), 13u);
  EXPECT_EQ(bus.next_free(20), 20u);
}

TEST(Bus, StatsReset) {
  SplitTransactionBus bus({8, 100});
  bus.read(0, 0, 64);
  bus.write(0, 0, 64);
  bus.reset_stats();
  EXPECT_EQ(bus.stats().reads, 0u);
  EXPECT_EQ(bus.stats().writes, 0u);
  EXPECT_EQ(bus.stats().busy_cycles, 0u);
}

}  // namespace
}  // namespace aeep::mem
