// Tests for the paper's contribution: the area model (§5.2 numbers), the
// cleaning FSM (§3.2), the protection schemes, and the ProtectedL2
// controller (write-back classification, dirty-residency integral, the
// shared-ECC-array invariant).
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/area_model.hpp"
#include "protect/cleaning_logic.hpp"
#include "protect/protected_l2.hpp"
#include "protect/shared_ecc_array.hpp"
#include "protect/uniform_ecc.hpp"

namespace aeep::protect {
namespace {

// ---------------------------------------------------------------------------
// Area model — the paper's §5.2 arithmetic, exactly.
// ---------------------------------------------------------------------------

TEST(AreaModel, ConventionalIs132KB) {
  const auto r = conventional_area(cache::kL2Geometry);
  // 128KB data ECC + 2KB tag parity + 2KB status parity.
  EXPECT_DOUBLE_EQ(r.total_kib(), 132.0);
  ASSERT_EQ(r.components.size(), 3u);
  EXPECT_EQ(r.components[0].bits, u64{128} * KiB * 8);
}

TEST(AreaModel, ProposedIs54KB) {
  const auto r = proposed_area(cache::kL2Geometry, 1);
  // 16KB parity + 32KB ECC array + 2KB written + 2KB tag + 2KB status.
  EXPECT_DOUBLE_EQ(r.total_kib(), 54.0);
}

TEST(AreaModel, ReductionIs59Percent) {
  const auto conv = conventional_area(cache::kL2Geometry);
  const auto prop = proposed_area(cache::kL2Geometry, 1);
  EXPECT_NEAR(prop.reduction_vs(conv), 0.59, 0.005);  // paper: 59%
}

TEST(AreaModel, Section31EstimateSaves48KB) {
  // §3.1: "16KB parity ... around 64KB ECC for dirty cache lines, saving
  // 48KB = 128KB - (64KB + 16KB)". Data components only.
  const auto r = non_uniform_area(cache::kL2Geometry, 0.5);
  double data_kib = 0;
  for (const auto& c : r.components)
    if (c.name.find("parity (1b / 64b)") != std::string::npos ||
        c.name.find("ECC for dirty") != std::string::npos)
      data_kib += static_cast<double>(c.bits) / 8.0 / 1024.0;
  EXPECT_DOUBLE_EQ(data_kib, 16.0 + 64.0);
}

TEST(AreaModel, PerLineBitCounts) {
  EXPECT_EQ(ecc_bits_per_line(cache::kL2Geometry), 64u);    // 8B per 64B line
  EXPECT_EQ(parity_bits_per_line(cache::kL2Geometry), 8u);  // 1b per 64b
}

TEST(AreaModel, EccArrayScalesWithEntries) {
  const auto k1 = proposed_area(cache::kL2Geometry, 1);
  const auto k4 = proposed_area(cache::kL2Geometry, 4);
  // k=4 is per-way ECC: three more 32KB arrays than k=1.
  EXPECT_DOUBLE_EQ(k4.total_kib() - k1.total_kib(), 96.0);
}

// ---------------------------------------------------------------------------
// Cleaning FSM
// ---------------------------------------------------------------------------

TEST(CleaningLogic, VisitsEverySetOncePerInterval) {
  CleaningLogic fsm(4096, 1 << 20);
  EXPECT_EQ(fsm.set_period(), (1u << 20) / 4096);
  std::vector<u64> visited;
  for (Cycle t = 0; t <= (1 << 20); ++t) {
    while (auto s = fsm.due(t)) visited.push_back(*s);
  }
  ASSERT_EQ(visited.size(), 4096u);
  for (u64 i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
}

TEST(CleaningLogic, WrapsAround) {
  CleaningLogic fsm(4, 40);  // set period 10
  std::vector<u64> visited;
  for (Cycle t = 0; t <= 85; ++t) {
    while (auto s = fsm.due(t)) visited.push_back(*s);
  }
  EXPECT_EQ(visited, (std::vector<u64>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(CleaningLogic, DisabledNeverFires) {
  CleaningLogic fsm(4096, 0);
  EXPECT_FALSE(fsm.enabled());
  for (Cycle t = 0; t < 100000; t += 997) EXPECT_FALSE(fsm.due(t).has_value());
}

TEST(CleaningLogic, CatchesUpAfterTimeJump) {
  CleaningLogic fsm(8, 80);  // one set per 10 cycles
  unsigned fired = 0;
  while (fsm.due(55)) ++fired;
  EXPECT_EQ(fired, 5u);  // due at 10,20,30,40,50
}

TEST(CleaningLogic, LatchWidthMatchesPaper) {
  CleaningLogic fsm(4096, 1 << 20);
  EXPECT_EQ(fsm.latch_bits(), 12u);  // "the latch is 12 bits wide"
}

// ---------------------------------------------------------------------------
// Scheme behaviour on a small cache
// ---------------------------------------------------------------------------

class SchemeTest : public ::testing::Test {
 protected:
  // 4 sets x 4 ways x 64B.
  SchemeTest() : cache_(cache::CacheGeometry{1024, 4, 64}) {}

  Addr install(u64 set, unsigned way, u64 tag) {
    const Addr a = cache_.geometry().addr_of(tag, set);
    std::vector<u64> payload(8);
    memory_.read_line(a, payload);
    cache_.install(set, way, a, 0, payload);
    return a;
  }

  cache::Cache cache_;
  mem::MemoryStore memory_;
};

TEST_F(SchemeTest, UniformEccRoundTrip) {
  UniformEccScheme s(cache_);
  install(0, 0, 1);
  s.on_fill(0, 0);
  EXPECT_EQ(s.check_read(0, 0, memory_).outcome, ReadOutcome::kOk);
  // Corrupt one payload bit: corrected.
  cache_.data(0, 0)[3] = flip_bit(cache_.data(0, 0)[3], 17);
  const auto r = s.check_read(0, 0, memory_);
  EXPECT_EQ(r.outcome, ReadOutcome::kCorrected);
  EXPECT_EQ(r.words_corrected, 1u);
  EXPECT_EQ(s.check_read(0, 0, memory_).outcome, ReadOutcome::kOk);
}

TEST_F(SchemeTest, UniformEccDirtyDoubleIsDue) {
  UniformEccScheme s(cache_);
  install(1, 0, 1);
  s.on_fill(1, 0);
  cache_.mark_dirty(1, 0);
  cache_.data(1, 0)[0] ^= 0b101;  // double-bit error in one word
  EXPECT_EQ(s.check_read(1, 0, memory_).outcome, ReadOutcome::kUncorrectable);
}

TEST_F(SchemeTest, UniformEccCleanDoubleRefetches) {
  UniformEccScheme s(cache_);
  const Addr a = install(1, 1, 2);
  s.on_fill(1, 1);
  cache_.data(1, 1)[0] ^= 0b101;
  EXPECT_EQ(s.check_read(1, 1, memory_).outcome, ReadOutcome::kRefetched);
  EXPECT_EQ(cache_.data(1, 1)[0], memory_.read_word(a));
}

// Non-uniform protection (§3.1) is the shared array with an entry per way.
TEST_F(SchemeTest, NonUniformCleanLineParityRefetch) {
  SharedEccArrayScheme s(cache_, 4);
  const Addr a = install(0, 0, 3);
  s.on_fill(0, 0);
  EXPECT_TRUE(s.ecc_words(0, 0).empty());  // clean line carries no ECC
  cache_.data(0, 0)[5] = flip_bit(cache_.data(0, 0)[5], 60);
  const auto r = s.check_read(0, 0, memory_);
  EXPECT_EQ(r.outcome, ReadOutcome::kRefetched);
  EXPECT_EQ(cache_.data(0, 0)[5], memory_.read_word(a + 5 * 8));
}

TEST_F(SchemeTest, NonUniformDirtyLineEccCorrects) {
  SharedEccArrayScheme s(cache_, 4);
  install(0, 1, 4);
  s.on_fill(0, 1);
  EXPECT_FALSE(s.before_dirty(0, 1).has_value());
  cache_.mark_dirty(0, 1);
  cache_.data(0, 1)[2] = 0x1234;
  s.on_write_applied(0, 1, u64{1} << 2);
  EXPECT_FALSE(s.ecc_words(0, 1).empty());
  const u64 golden = cache_.data(0, 1)[2];
  cache_.data(0, 1)[2] = flip_bit(golden, 9);
  s.parity_words(0, 1)[2] ^= 1;  // the word's parity bit is struck too
  const auto r = s.check_read(0, 1, memory_);
  EXPECT_EQ(r.outcome, ReadOutcome::kCorrected);
  EXPECT_EQ(cache_.data(0, 1)[2], golden);
  // The repair refreshes the parity of the repaired word.
  EXPECT_EQ(s.parity_words(0, 1)[2], parity64(golden));
}

TEST_F(SchemeTest, SharedArrayAllowsOneDirtyPerSet) {
  SharedEccArrayScheme s(cache_, 1);
  install(0, 0, 1);
  s.on_fill(0, 0);
  install(0, 1, 2);
  s.on_fill(0, 1);

  // First dirtying: entry free, no forced write-back.
  EXPECT_FALSE(s.before_dirty(0, 0).has_value());
  cache_.mark_dirty(0, 0);
  cache_.data(0, 0)[0] = 7;
  s.on_write_applied(0, 0, 1);
  EXPECT_EQ(s.entry_of(0, 0), 0);

  // Second line wants to dirty: the scheme demands eviction of line 0's ECC.
  const auto fw = s.before_dirty(0, 1);
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->set, 0u);
  EXPECT_EQ(fw->way, 0u);
  EXPECT_EQ(s.ecc_entry_evictions(), 1u);

  // Controller writes line 0 back and frees its entry...
  cache_.clear_dirty(0, 0);
  s.on_writeback(0, 0);
  // ...after which the allocation succeeds.
  EXPECT_FALSE(s.before_dirty(0, 1).has_value());
  cache_.mark_dirty(0, 1);
  s.on_write_applied(0, 1, 1);
  EXPECT_EQ(s.entry_of(0, 1), 0);
  EXPECT_EQ(s.entry_of(0, 0), -1);
  EXPECT_EQ(cache_.count_dirty_in_set(0), 1u);
}

TEST_F(SchemeTest, SharedArrayRedirtyingOwnerNeedsNoEviction) {
  SharedEccArrayScheme s(cache_, 1);
  install(1, 0, 1);
  s.on_fill(1, 0);
  EXPECT_FALSE(s.before_dirty(1, 0).has_value());
  cache_.mark_dirty(1, 0);
  s.on_write_applied(1, 0, 1);
  // Writing the same dirty line again must not evict anything.
  EXPECT_FALSE(s.before_dirty(1, 0).has_value());
  EXPECT_EQ(s.ecc_entry_evictions(), 0u);
}

TEST_F(SchemeTest, SharedArrayTwoEntriesAllowTwoDirty) {
  SharedEccArrayScheme s(cache_, 2);
  for (unsigned w = 0; w < 3; ++w) {
    install(2, w, 20 + w);
    s.on_fill(2, w);
  }
  EXPECT_FALSE(s.before_dirty(2, 0).has_value());
  cache_.mark_dirty(2, 0);
  s.on_write_applied(2, 0, 1);
  EXPECT_FALSE(s.before_dirty(2, 1).has_value());
  cache_.mark_dirty(2, 1);
  s.on_write_applied(2, 1, 1);
  // Third dirty line evicts the oldest allocation (way 0).
  const auto fw = s.before_dirty(2, 2);
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->way, 0u);
}

TEST_F(SchemeTest, SharedArrayK2EvictsOldestAllocationFirst) {
  SharedEccArrayScheme s(cache_, 2);
  for (unsigned w = 0; w < 4; ++w) {
    install(1, w, 40 + w);
    s.on_fill(1, w);
  }
  const auto dirty = [&](unsigned way) {
    EXPECT_FALSE(s.before_dirty(1, way).has_value());
    cache_.mark_dirty(1, way);
    s.on_write_applied(1, way, 1);
  };
  dirty(0);
  dirty(1);
  // Re-dirtying the oldest owner must NOT refresh its allocation age:
  // entry eviction is ordered by allocation, not by write recency.
  EXPECT_FALSE(s.before_dirty(1, 0).has_value());
  s.on_write_applied(1, 0, 1);
  // Third dirty line: way 0 (oldest allocation) is nominated.
  auto fw = s.before_dirty(1, 2);
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->way, 0u);
  EXPECT_EQ(fw->addr, cache_.line_addr(1, 0));
  cache_.clear_dirty(1, 0);
  s.on_writeback(1, 0);
  dirty(2);
  // Fourth dirty line: the oldest remaining allocation is now way 1.
  fw = s.before_dirty(1, 3);
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->way, 1u);
  EXPECT_EQ(s.ecc_entry_evictions(), 2u);
}

TEST_F(SchemeTest, SharedArrayK2EntryMapStaysConsistent) {
  SharedEccArrayScheme s(cache_, 2);
  for (unsigned w = 0; w < 4; ++w) {
    install(2, w, 50 + w);
    s.on_fill(2, w);
  }
  for (unsigned way : {1u, 3u}) {
    EXPECT_FALSE(s.before_dirty(2, way).has_value());
    cache_.mark_dirty(2, way);
    s.on_write_applied(2, way, 1);
  }
  // Both dirty ways own distinct entries in [0, k); clean ways own none,
  // and each dirty way's ECC span is live.
  EXPECT_NE(s.entry_of(2, 1), -1);
  EXPECT_NE(s.entry_of(2, 3), -1);
  EXPECT_NE(s.entry_of(2, 1), s.entry_of(2, 3));
  EXPECT_LT(s.entry_of(2, 1), 2);
  EXPECT_LT(s.entry_of(2, 3), 2);
  EXPECT_EQ(s.entry_of(2, 0), -1);
  EXPECT_EQ(s.entry_of(2, 2), -1);
  EXPECT_TRUE(s.ecc_words(2, 0).empty());
  EXPECT_FALSE(s.ecc_words(2, 1).empty());
  // A write-back releases exactly the owner's entry.
  cache_.clear_dirty(2, 1);
  s.on_writeback(2, 1);
  EXPECT_EQ(s.entry_of(2, 1), -1);
  EXPECT_NE(s.entry_of(2, 3), -1);
  EXPECT_EQ(s.ecc_entry_evictions(), 0u);
}

TEST_F(SchemeTest, SharedArrayDirtyLineCorrectsViaSharedEntry) {
  SharedEccArrayScheme s(cache_, 1);
  install(3, 2, 9);
  s.on_fill(3, 2);
  EXPECT_FALSE(s.before_dirty(3, 2).has_value());
  cache_.mark_dirty(3, 2);
  cache_.data(3, 2)[7] = 0xFEED;
  s.on_write_applied(3, 2, u64{1} << 7);
  cache_.data(3, 2)[7] = flip_bit(0xFEED, 3);
  s.parity_words(3, 2)[7] ^= 1;  // the word's parity bit is struck too
  EXPECT_EQ(s.check_read(3, 2, memory_).outcome, ReadOutcome::kCorrected);
  EXPECT_EQ(cache_.data(3, 2)[7], 0xFEEDu);
  // The repair refreshes the parity of the repaired word.
  EXPECT_EQ(s.parity_words(3, 2)[7], parity64(0xFEED));
}

// The check bits a scheme stores are the paper's area arithmetic (§5.2):
// one byte holds a word's 8 SECDED check bits, so the ECC bytes summed
// over every line are exactly the ECC component of the area model.
// Parity is stored one byte per 1-bit code: 8x the paper's 16 KB.
TEST(SchemeStorage, StoredCheckBytesMatchTheAreaModel) {
  const cache::CacheGeometry& g = cache::kL2Geometry;
  const auto component_bytes = [](const AreaReport& r,
                                   const std::string& prefix) -> u64 {
    for (const AreaComponent& c : r.components)
      if (c.name.starts_with(prefix)) return c.bits / 8;
    ADD_FAILURE() << "no area component " << prefix;
    return 0;
  };
  cache::Cache cache(g);
  mem::MemoryStore memory;

  UniformEccScheme uniform(cache);
  u64 uniform_ecc = 0;
  for (u64 set = 0; set < g.num_sets(); ++set)
    for (unsigned way = 0; way < g.ways; ++way)
      uniform_ecc += uniform.ecc_words(set, way).size_bytes();
  EXPECT_EQ(uniform_ecc, component_bytes(conventional_area(g), "data ECC"));
  EXPECT_EQ(uniform_ecc, 128 * KiB);

  // Shared array, k = 1: one dirty line per set owns the set's entry.
  SharedEccArrayScheme shared(cache, 1);
  std::vector<u64> payload(g.words_per_line());
  for (u64 set = 0; set < g.num_sets(); ++set) {
    const Addr a = g.addr_of(1, set);
    memory.read_line(a, payload);
    cache.install(set, 0, a, 0, payload);
    shared.on_fill(set, 0);
    ASSERT_FALSE(shared.before_dirty(set, 0).has_value());
    cache.mark_dirty(set, 0);
    shared.on_write_applied(set, 0, ~u64{0});
  }
  u64 shared_ecc = 0;
  u64 shared_parity = 0;
  for (u64 set = 0; set < g.num_sets(); ++set) {
    for (unsigned way = 0; way < g.ways; ++way) {
      shared_ecc += shared.ecc_words(set, way).size_bytes();
      shared_parity += shared.parity_words(set, way).size_bytes();
    }
  }
  const AreaReport proposed = proposed_area(g, 1);
  EXPECT_EQ(shared_ecc, component_bytes(proposed, "ECC array"));
  EXPECT_EQ(shared_ecc, 32 * KiB);
  EXPECT_EQ(shared_parity, 8 * component_bytes(proposed, "data parity"));
  EXPECT_EQ(shared_parity, 128 * KiB);
}

TEST_F(SchemeTest, SharedArrayEvictReleasesEntry) {
  SharedEccArrayScheme s(cache_, 1);
  install(0, 3, 30);
  s.on_fill(0, 3);
  EXPECT_FALSE(s.before_dirty(0, 3).has_value());
  cache_.mark_dirty(0, 3);
  s.on_write_applied(0, 3, 1);
  // Line leaves the cache (controller wrote it back first).
  cache_.clear_dirty(0, 3);
  s.on_evict(0, 3);
  EXPECT_EQ(s.entry_of(0, 3), -1);
  install(0, 3, 31);
  s.on_fill(0, 3);  // would assert internally on a stale entry
}

// ---------------------------------------------------------------------------
// ProtectedL2 controller
// ---------------------------------------------------------------------------

class ProtectedL2Test : public ::testing::Test {
 protected:
  L2Config small_config(SchemeKind scheme, Cycle interval = 0) {
    L2Config cfg;
    cfg.geometry = cache::CacheGeometry{4096, 4, 64};  // 16 sets
    cfg.hit_latency = 10;
    cfg.scheme = scheme;
    cfg.cleaning_interval = interval;
    cfg.maintain_codes = true;
    return cfg;
  }

  std::vector<u64> line_of(u64 v) { return std::vector<u64>(8, v); }

  mem::SplitTransactionBus bus_{{8, 100}};
  mem::MemoryStore memory_;
};

TEST_F(ProtectedL2Test, ReadMissThenHitLatency) {
  ProtectedL2 l2(small_config(SchemeKind::kUniformEcc), bus_, memory_);
  const Cycle miss_done = l2.read(0, 0x1000);
  EXPECT_EQ(miss_done, 10 + 100 + 8u);  // hit latency + DRAM + 8 beats
  const Cycle hit_done = l2.read(200, 0x1000);
  EXPECT_EQ(hit_done, 210u);
}

TEST_F(ProtectedL2Test, WriteMakesDirtyAndSecondWriteSetsWrittenBit) {
  ProtectedL2 l2(small_config(SchemeKind::kNonUniform), bus_, memory_);
  const std::vector<u64> v = line_of(0xAB);
  l2.write(0, 0x2000, 0x1, v);
  const auto pr = l2.cache_model().probe(0x2000);
  ASSERT_TRUE(pr.hit);
  EXPECT_TRUE(l2.cache_model().meta(pr.set, pr.way).dirty);
  EXPECT_FALSE(l2.cache_model().meta(pr.set, pr.way).written);
  l2.write(300, 0x2000, 0x2, v);
  EXPECT_TRUE(l2.cache_model().meta(pr.set, pr.way).written);  // §3.2
}

TEST_F(ProtectedL2Test, DirtyEvictionIsReplacementWriteback) {
  auto cfg = small_config(SchemeKind::kNonUniform);
  ProtectedL2 l2(cfg, bus_, memory_);
  // Dirty one line, then blow the set with 4 more fills to evict it.
  const Addr base = 0x0;
  l2.write(0, base, ~u64{0}, line_of(0x77));
  const u64 set = cfg.geometry.set_index(base);
  for (unsigned k = 1; k <= 4; ++k) {
    const Addr conflict = cfg.geometry.addr_of(100 + k, set);
    l2.read(1000 * k, conflict);
  }
  EXPECT_EQ(l2.wb_count(WbCause::kReplacement), 1u);
  // The write-back reached memory.
  EXPECT_EQ(memory_.read_word(base), 0x77u);
}

TEST_F(ProtectedL2Test, CleaningWritesBackIdleDirtyLines) {
  auto cfg = small_config(SchemeKind::kNonUniform, /*interval=*/1600);
  ProtectedL2 l2(cfg, bus_, memory_);  // 16 sets -> one set per 100 cycles
  l2.write(0, 0x0, ~u64{0}, line_of(0x5A));
  // Tick through one full interval: the line is dirty with written=0, so
  // the FSM cleans it.
  for (Cycle t = 1; t <= 1700; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
  const auto pr = l2.cache_model().probe(0x0);
  ASSERT_TRUE(pr.hit);
  EXPECT_FALSE(l2.cache_model().meta(pr.set, pr.way).dirty);
  EXPECT_EQ(memory_.read_word(0x0), 0x5Au);
}

TEST_F(ProtectedL2Test, WrittenBitDefersCleaningOnePass) {
  auto cfg = small_config(SchemeKind::kNonUniform, 1600);
  ProtectedL2 l2(cfg, bus_, memory_);
  l2.write(0, 0x0, 0x1, line_of(1));
  l2.write(10, 0x0, 0x2, line_of(2));  // written bit now set
  // Set 0 is inspected at t=100 (resets written) and t=1700 (cleans).
  Cycle t = 11;
  for (; t <= 1650; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 0u);
  for (; t <= 1750; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
}

TEST_F(ProtectedL2Test, NaiveCleaningIgnoresWrittenBit) {
  auto cfg = small_config(SchemeKind::kNonUniform, 1600);
  cfg.cleaning_policy = CleaningPolicy::kNaive;
  ProtectedL2 l2(cfg, bus_, memory_);
  l2.write(0, 0x0, 0x1, line_of(1));
  l2.write(10, 0x0, 0x2, line_of(2));
  for (Cycle t = 11; t <= 1700; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
}

TEST_F(ProtectedL2Test, EccEvictionOnSecondDirtyLineInSet) {
  auto cfg = small_config(SchemeKind::kSharedEccArray);
  ProtectedL2 l2(cfg, bus_, memory_);
  const u64 set = 3;
  const Addr a = cfg.geometry.addr_of(1, set);
  const Addr b = cfg.geometry.addr_of(2, set);
  l2.write(0, a, ~u64{0}, line_of(0xA));
  l2.write(100, b, ~u64{0}, line_of(0xB));
  EXPECT_EQ(l2.wb_count(WbCause::kEccEviction), 1u);
  // Line a was forced clean and reached memory; b is the dirty one.
  EXPECT_EQ(memory_.read_word(a), 0xAu);
  EXPECT_EQ(l2.cache_model().count_dirty_in_set(set), 1u);
  const auto pb = l2.cache_model().probe(b);
  EXPECT_TRUE(l2.cache_model().meta(pb.set, pb.way).dirty);
}

TEST_F(ProtectedL2Test, EccEvictionAccountingWithTwoEntries) {
  auto cfg = small_config(SchemeKind::kSharedEccArray);
  cfg.ecc_entries_per_set = 2;
  ProtectedL2 l2(cfg, bus_, memory_);
  const u64 set = 5;
  const Addr a = cfg.geometry.addr_of(1, set);
  const Addr b = cfg.geometry.addr_of(2, set);
  const Addr c = cfg.geometry.addr_of(3, set);
  l2.write(0, a, ~u64{0}, line_of(0xA));
  l2.write(100, b, ~u64{0}, line_of(0xB));
  // Two entries hold two dirty lines without any forced traffic.
  EXPECT_EQ(l2.wb_count(WbCause::kEccEviction), 0u);
  EXPECT_EQ(l2.cache_model().count_dirty_in_set(set), 2u);
  // The third dirty line evicts the oldest allocation (line a).
  l2.write(200, c, ~u64{0}, line_of(0xC));
  EXPECT_EQ(l2.wb_count(WbCause::kEccEviction), 1u);
  EXPECT_EQ(l2.cache_model().count_dirty_in_set(set), 2u);
  EXPECT_EQ(memory_.read_word(a), 0xAu);
  const auto pa = l2.cache_model().probe(a);
  ASSERT_TRUE(pa.hit);
  EXPECT_FALSE(l2.cache_model().meta(pa.set, pa.way).dirty);
  // §3.3 accounting: forced ECC-WBs equal the scheme's entry evictions.
  auto* shared = dynamic_cast<SharedEccArrayScheme*>(&l2.scheme());
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(l2.wb_count(WbCause::kEccEviction), shared->ecc_entry_evictions());
}

TEST_F(ProtectedL2Test, SharedArrayInvariantUnderChurn) {
  auto cfg = small_config(SchemeKind::kSharedEccArray, 3200);
  ProtectedL2 l2(cfg, bus_, memory_);
  Xorshift64Star rng(5);
  Cycle t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + rng.next_below(4);
    l2.tick(t);
    const u64 set = rng.next_below(16);
    const Addr addr = cfg.geometry.addr_of(rng.next_below(12), set);
    if (rng.chance(0.4)) {
      l2.write(t, addr, u64{1} << rng.next_below(8), line_of(rng.next()));
    } else {
      l2.read(t, addr);
    }
    // Invariant: never more than one dirty line per set.
    for (u64 s = 0; s < 16; ++s)
      ASSERT_LE(l2.cache_model().count_dirty_in_set(s), 1u);
  }
  EXPECT_GT(l2.wb_count(WbCause::kEccEviction), 0u);
}

TEST_F(ProtectedL2Test, NonUniformIsSharedArrayWithAnEntryPerWay) {
  auto cfg = small_config(SchemeKind::kNonUniform, 3200);
  ProtectedL2 l2(cfg, bus_, memory_);
  auto* shared = dynamic_cast<SharedEccArrayScheme*>(&l2.scheme());
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->entries_per_set(), cfg.geometry.ways);
  // Every way of a set may be dirty at once.
  const u64 set = 3;
  for (unsigned k = 0; k < cfg.geometry.ways; ++k)
    l2.write(k, cfg.geometry.addr_of(1 + k, set), ~u64{0}, line_of(k));
  EXPECT_EQ(l2.cache_model().count_dirty_in_set(set), cfg.geometry.ways);
  // The churn that forces ECC-WBs under k = 1 forces none here.
  Xorshift64Star rng(5);
  Cycle t = cfg.geometry.ways;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + rng.next_below(4);
    l2.tick(t);
    const u64 churn_set = rng.next_below(16);
    const Addr addr = cfg.geometry.addr_of(rng.next_below(12), churn_set);
    if (rng.chance(0.4)) {
      l2.write(t, addr, u64{1} << rng.next_below(8), line_of(rng.next()));
    } else {
      l2.read(t, addr);
    }
  }
  EXPECT_EQ(l2.wb_count(WbCause::kEccEviction), 0u);
  EXPECT_EQ(shared->ecc_entry_evictions(), 0u);
}

TEST_F(ProtectedL2Test, DirtyResidencyIntegralMatchesHandComputation) {
  ProtectedL2 l2(small_config(SchemeKind::kNonUniform), bus_, memory_);
  // Dirty 1 line at t=0 (the write lands at t=0), evict it at t=1000 via
  // conflict fills, finalize at t=2000.
  l2.write(0, 0x0, ~u64{0}, line_of(1));
  const u64 set = 0;
  for (unsigned k = 1; k <= 4; ++k)
    l2.read(1000, l2.config().geometry.addr_of(100 + k, set));
  l2.finalize(2000);
  // 1 dirty line over [0,1000), 0 over [1000,2000): average 0.5 lines.
  EXPECT_NEAR(l2.avg_dirty_lines(), 0.5, 0.01);
}

TEST_F(ProtectedL2Test, WbTotalSumsCauses) {
  auto cfg = small_config(SchemeKind::kSharedEccArray, 1600);
  ProtectedL2 l2(cfg, bus_, memory_);
  const u64 set = 0;
  l2.write(0, cfg.geometry.addr_of(1, set), ~u64{0}, line_of(1));
  l2.write(1, cfg.geometry.addr_of(2, set), ~u64{0}, line_of(2));  // ECC-WB
  for (Cycle t = 2; t < 3300; ++t) l2.tick(t);                     // Clean-WB
  EXPECT_EQ(l2.wb_total(), l2.wb_count(WbCause::kReplacement) +
                               l2.wb_count(WbCause::kCleaning) +
                               l2.wb_count(WbCause::kEccEviction));
  EXPECT_GE(l2.wb_total(), 2u);
}

TEST_F(ProtectedL2Test, ResetMetricsKeepsState) {
  ProtectedL2 l2(small_config(SchemeKind::kNonUniform), bus_, memory_);
  l2.write(0, 0x0, ~u64{0}, line_of(9));
  l2.reset_metrics(100);
  EXPECT_EQ(l2.wb_total(), 0u);
  EXPECT_TRUE(l2.cache_model().probe(0x0).hit);  // state survives
  EXPECT_EQ(l2.cache_model().dirty_count(), 1u);
}

TEST_F(ProtectedL2Test, ResetMetricsRebasesPeakDirtyAndInspections) {
  auto cfg = small_config(SchemeKind::kNonUniform, /*interval=*/1600);
  ProtectedL2 l2(cfg, bus_, memory_);
  // Push the dirty population to 3, then evict one via conflict fills so
  // the *current* level (2) sits below the recorded peak (3). High sets:
  // the FSM (one set per 100 cycles) must not reach them before t=400.
  for (u64 s = 12; s < 15; ++s)
    l2.write(s, cfg.geometry.addr_of(1, s), ~u64{0}, line_of(s));
  for (unsigned k = 1; k <= 4; ++k)
    l2.read(100 + k, cfg.geometry.addr_of(100 + k, 12));
  ASSERT_EQ(l2.cache_model().dirty_count(), 2u);
  ASSERT_EQ(l2.peak_dirty_lines(), 3u);
  for (Cycle t = 105; t <= 400; ++t) l2.tick(t);
  ASSERT_GT(l2.cleaning_inspections(), 0u);

  // After a warm-up reset the metrics must restart from live state: the
  // peak rebases to the current dirty count, inspections to zero — and the
  // dirty-residency integral agrees with the rebased level.
  l2.reset_metrics(400);
  EXPECT_EQ(l2.peak_dirty_lines(), l2.cache_model().dirty_count());
  EXPECT_EQ(l2.peak_dirty_lines(), 2u);
  EXPECT_EQ(l2.cleaning_inspections(), 0u);
  l2.finalize(600);
  EXPECT_NEAR(l2.avg_dirty_lines(), 2.0, 1e-9);
}

TEST_F(ProtectedL2Test, SchemeNames) {
  EXPECT_STREQ(to_string(WbCause::kReplacement), "WB");
  EXPECT_STREQ(to_string(WbCause::kCleaning), "Clean-WB");
  EXPECT_STREQ(to_string(WbCause::kEccEviction), "ECC-WB");
  ProtectedL2 l2(small_config(SchemeKind::kSharedEccArray), bus_, memory_);
  EXPECT_EQ(l2.scheme().name(), "shared-ecc-array(k=1)");
}

}  // namespace
}  // namespace aeep::protect
