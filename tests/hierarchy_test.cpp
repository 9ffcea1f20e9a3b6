// Focused tests for sim::MemoryHierarchy: the write-through L1D + write
// buffer path, L1I/L1D fill-through-L2 timing, TLB penalties, and the
// drain policy (coalescing window, watermark), and the next_event()
// contract that lets a caller skip idle ticks.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "sim/experiment.hpp"
#include "sim/hierarchy.hpp"

namespace aeep::sim {
namespace {

HierarchyConfig small_config() {
  HierarchyConfig cfg;
  // Keep the Table-1 shape but a small L2 so conflict tests are cheap.
  cfg.l2.geometry = cache::CacheGeometry{64 * KiB, 4, 64};
  cfg.l2.scheme = protect::SchemeKind::kNonUniform;
  cfg.l2.maintain_codes = true;
  return cfg;
}

TEST(Hierarchy, L1DHitIsOneCycle) {
  MemoryHierarchy h(small_config());
  const Addr a = 0x1000;
  h.load(0, a);                      // cold miss warms L1D
  const Cycle t = h.load(500, a);    // now a hit
  EXPECT_EQ(t, 501u);
  EXPECT_EQ(h.l1d().stats().read_hits, 1u);
}

TEST(Hierarchy, L1DMissGoesThroughL2) {
  MemoryHierarchy h(small_config());
  const Cycle t = h.load(0, 0x2000);
  // 1 (L1) + 30 (cold DTLB) + 10 (L2 hit lat) + 100 (DRAM) + 8 beats.
  EXPECT_EQ(t, 1 + 30 + 10 + 100 + 8u);
  EXPECT_EQ(h.l2().cache_model().stats().reads, 1u);
}

TEST(Hierarchy, WarmTlbDropsPenalty) {
  MemoryHierarchy h(small_config());
  h.load(0, 0x3000);
  const Cycle t = h.load(1000, 0x3040);  // same page, different L1 line
  EXPECT_EQ(t, 1000 + 1 + 10 + 100 + 8u);
}

TEST(Hierarchy, FetchFillsL1I) {
  MemoryHierarchy h(small_config());
  const Addr pc = 0x400000;
  h.fetch(0, pc);
  EXPECT_EQ(h.l1i().stats().misses(), 1u);
  const Cycle t = h.fetch(500, pc + 16);  // same 32B block
  EXPECT_EQ(t, 501u);
  EXPECT_EQ(h.l1i().stats().read_hits, 1u);
}

TEST(Hierarchy, StoresNeverDirtyL1) {
  MemoryHierarchy h(small_config());
  h.load(0, 0x5000);  // bring into L1D
  EXPECT_TRUE(h.store(10, 0x5000, 0xBEEF));
  EXPECT_EQ(h.l1d().dirty_count(), 0u);  // write-through
  // The stored value landed in the L1D copy.
  const auto pr = h.l1d().probe(0x5000);
  ASSERT_TRUE(pr.hit);
  EXPECT_EQ(h.l1d().data(pr.set, pr.way)[0], 0xBEEFu);
}

TEST(Hierarchy, StoreMissDoesNotAllocateL1) {
  MemoryHierarchy h(small_config());
  EXPECT_TRUE(h.store(0, 0x6000, 1));
  EXPECT_FALSE(h.l1d().probe(0x6000).hit);  // write-no-allocate
}

TEST(Hierarchy, DrainAfterResidencyMakesL2LineDirty) {
  auto cfg = small_config();
  cfg.wb_min_residency = 16;
  MemoryHierarchy h(cfg);
  EXPECT_TRUE(h.store(0, 0x7000, 0x42));
  h.tick(1);
  EXPECT_FALSE(h.l2().cache_model().probe(0x7000).hit);  // not yet drained
  for (Cycle t = 2; t < 40; ++t) h.tick(t);
  const auto pr = h.l2().cache_model().probe(0x7000);
  ASSERT_TRUE(pr.hit);
  EXPECT_TRUE(h.l2().cache_model().meta(pr.set, pr.way).dirty);
  EXPECT_EQ(h.l2().cache_model().data(pr.set, pr.way)[0], 0x42u);
}

TEST(Hierarchy, WatermarkForcesEarlyDrain) {
  auto cfg = small_config();
  cfg.wb_min_residency = 1'000'000;  // residency alone would never drain
  cfg.wb_high_watermark = 2;
  MemoryHierarchy h(cfg);
  h.store(0, 0x0, 1);
  h.store(0, 0x40, 2);
  h.store(0, 0x80, 3);  // occupancy 3 > watermark 2
  h.tick(1);
  EXPECT_LE(h.write_buffer().size(), 2u);
}

TEST(Hierarchy, CoalescingWindowMergesStores) {
  auto cfg = small_config();
  cfg.wb_min_residency = 100;
  MemoryHierarchy h(cfg);
  h.store(0, 0x8000, 1);
  h.store(5, 0x8008, 2);   // same line: coalesces
  h.store(9, 0x8038, 3);
  EXPECT_EQ(h.write_buffer().size(), 1u);
  EXPECT_EQ(h.write_buffer().stats().coalesced, 2u);
  for (Cycle t = 10; t < 130; ++t) h.tick(t);
  // One L2 write carrying all three words.
  EXPECT_EQ(h.l2().cache_model().stats().writes, 1u);
  const auto pr = h.l2().cache_model().probe(0x8000);
  ASSERT_TRUE(pr.hit);
  const auto data = h.l2().cache_model().data(pr.set, pr.way);
  EXPECT_EQ(data[0], 1u);
  EXPECT_EQ(data[1], 2u);
  EXPECT_EQ(data[7], 3u);
}

TEST(Hierarchy, FullBufferRejectsUntilDrained) {
  auto cfg = small_config();
  cfg.write_buffer_entries = 2;
  cfg.wb_min_residency = 50;
  MemoryHierarchy h(cfg);
  EXPECT_TRUE(h.store(0, 0x0, 1));
  EXPECT_TRUE(h.store(0, 0x40, 2));
  EXPECT_FALSE(h.store(0, 0x80, 3));  // full, distinct line
  EXPECT_TRUE(h.store(0, 0x48, 4));   // coalesces even when full
  for (Cycle t = 1; t < 200; ++t) h.tick(t);
  EXPECT_TRUE(h.store(200, 0x80, 3));
}

TEST(Hierarchy, FlushDrainsEverything) {
  MemoryHierarchy h(small_config());
  for (unsigned i = 0; i < 5; ++i) h.store(0, 0x9000 + i * 64, i);
  h.flush_write_buffer(10);
  EXPECT_TRUE(h.write_buffer().empty());
  EXPECT_EQ(h.l2().cache_model().stats().writes, 5u);
}

TEST(Hierarchy, StatsResetPreservesCacheContents) {
  MemoryHierarchy h(small_config());
  h.load(0, 0xA000);
  h.store(1, 0xA000, 7);
  h.flush_write_buffer(2);
  h.reset_stats(100);
  EXPECT_EQ(h.l1d().stats().accesses(), 0u);
  EXPECT_EQ(h.l2().wb_total(), 0u);
  EXPECT_TRUE(h.l1d().probe(0xA000).hit);  // contents intact
}

/// Two copies of one hierarchy: `every` is ticked in every cycle, `sparse`
/// only in the cycles its next_event() names and in each cycle it is
/// accessed in, as the core and the trace replayer tick it.
struct EveryAndSparse {
  explicit EveryAndSparse(const HierarchyConfig& cfg)
      : every(cfg), sparse(cfg) {}

  /// Fire both copies' ticks up to and including cycle `now`, before an
  /// access at `now`.
  void tick_through(Cycle now) {
    while (every_ticked <= now) every.tick(every_ticked++);
    while (sparse_ticked < now) {
      sparse_ticked = std::min(now, sparse.next_event(sparse_ticked));
      if (sparse_ticked == now) break;
      sparse.tick(sparse_ticked++);
      ++sparse_ticks;
    }
    if (sparse_ticked == now) {
      sparse.tick(sparse_ticked++);
      ++sparse_ticks;
    }
  }

  /// Tick through `last` and close both copies' dirty-residency integrals.
  void finish(Cycle last) {
    tick_through(last);
    every.l2().finalize(last + 1);
    sparse.l2().finalize(last + 1);
  }

  MemoryHierarchy every;
  MemoryHierarchy sparse;
  Cycle every_ticked = 0;
  Cycle sparse_ticked = 0;
  u64 sparse_ticks = 0;
};

TEST(Hierarchy, TickingOnlyAtNextEventMatchesTickingEveryCycle) {
  // A 16 KB L2 under a working set four times its size, so the lines the
  // tick work touches are soon accessed: strikes with MBUs, a permanent
  // and an intermittent stuck cell, cleaning at 64K with check bits, way
  // retirement, and store bursts that fill the write buffer. Tick work
  // that fired late would change what a later access sees.
  ExperimentOptions o;
  o.scheme = protect::SchemeKind::kSharedEccArray;
  o.cleaning_interval = 64 * 1024;
  o.strikes_enabled = true;
  o.strike_rate_scale = 2e12;
  o.strike_double_bit_fraction = 0.25;
  o.retirement_threshold = 4;
  o.stuck_faults = {
      {fault::FaultTarget::kData, 0, 0, 5, true, 0, 0},
      {fault::FaultTarget::kData, 1, 1, 70, false, 500, 2'000}};
  HierarchyConfig cfg = make_system_config("gzip", o).hierarchy;
  cfg.l2.geometry = cache::CacheGeometry{16 * KiB, 4, 64};
  cfg.strikes.stuck_reassert_interval = 300;
  const u64 lines = 4 * cfg.l2.geometry.total_lines();

  EveryAndSparse h(cfg);
  Xorshift64Star rng(5);
  Cycle now = 0;
  for (int i = 0; i < 30'000; ++i) {
    now += rng.chance(0.2) ? rng.next_below(400) : rng.next_below(3);
    h.tick_through(now);
    const Addr addr = rng.next_below(lines) * 64 + 8 * rng.next_below(8);
    switch (rng.next_below(4)) {
      case 0:
        EXPECT_EQ(h.every.fetch(now, addr), h.sparse.fetch(now, addr));
        break;
      case 1:
        EXPECT_EQ(h.every.load(now, addr), h.sparse.load(now, addr));
        break;
      default:
        EXPECT_EQ(h.every.store(now, addr, i), h.sparse.store(now, addr, i));
        break;
    }
  }
  h.finish(now);

  const RunResult a = hierarchy_result(h.every);
  const RunResult b = hierarchy_result(h.sparse);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.strikes.strikes, 0u);
  EXPECT_GT(a.strikes.stuck_reasserts, 0u);
  EXPECT_GT(a.wb_cleaning, 0u);
  EXPECT_GT(a.wbuf.full_events, 0u);
  EXPECT_GT(a.recovery.corrected, 0u);
  EXPECT_GT(a.retired_ways, 0u);
  EXPECT_LT(h.sparse_ticks * 2, h.every_ticked);
}

TEST(Hierarchy, QueuedRetirementIsTickWorkNow) {
  // A fault corrected while a miss writes back its dirty victim crosses the
  // retirement threshold off the access path, so the retirement waits for
  // the next tick. next_event() must call for that tick at once: skipped
  // to the next drain, it would run after the drain had written into the
  // way being retired.
  HierarchyConfig cfg = small_config();
  cfg.l2.recovery.check_on_access = true;
  cfg.l2.recovery.retirement_threshold = 1;
  const Addr a = 0x10000;
  const Addr set_stride =
      cfg.l2.geometry.num_sets() * cfg.l2.geometry.line_bytes;
  EveryAndSparse h(cfg);

  // A drains into the L2 (write-allocate) and sits there dirty; then one
  // of its data bits flips.
  h.tick_through(0);
  ASSERT_TRUE(h.every.store(0, a, 1));
  ASSERT_TRUE(h.sparse.store(0, a, 1));
  Cycle now = 2 * cfg.wb_min_residency;
  h.tick_through(now);
  for (MemoryHierarchy* m : {&h.every, &h.sparse}) {
    const cache::ProbeResult pr = m->l2().cache_model().probe(a);
    ASSERT_TRUE(pr.hit);
    ASSERT_TRUE(fault::flip_stored_bit(m->l2(), pr.set, pr.way,
                                       {fault::FaultTarget::kData, 3}));
  }
  // Four more lines of A's set: the fourth evicts A, whose write-back
  // corrects the bit and queues A's way for retirement, and fills that
  // way. A store to the fourth line in the same cycle drains into that way
  // if the retirement has not run by then.
  for (unsigned k = 1; k <= 4; ++k) {
    now += 200;
    h.tick_through(now);
    const Addr line = a + k * set_stride;
    if (k == 4) {
      ASSERT_TRUE(h.every.store(now, line, 2));
      ASSERT_TRUE(h.sparse.store(now, line, 2));
    }
    EXPECT_EQ(h.every.load(now, line), h.sparse.load(now, line));
  }
  EXPECT_TRUE(h.sparse.l2().recovery().retirement_pending());
  EXPECT_EQ(h.sparse.next_event(now + 1), now + 1);
  h.finish(now + 4 * cfg.wb_min_residency);

  const RunResult r = hierarchy_result(h.every);
  EXPECT_EQ(r, hierarchy_result(h.sparse));
  EXPECT_EQ(r.recovery.corrected, 1u);
  EXPECT_EQ(r.retired_ways, 1u);
  EXPECT_EQ(r.wb_replacement, 1u);  // A's; the store drains after retiring
}

}  // namespace
}  // namespace aeep::sim
