// Tests for the online recovery controller: the three recovery paths
// (scrub-correct, parity re-fetch with bounded retries, DUE policies), the
// outbound write-back validation, the MCA-style error log, and graceful
// way-retirement — plus the end-to-end determinism of a seeded strike run.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "fault/strike_process.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/protected_l2.hpp"
#include "protect/recovery.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"

namespace aeep::protect {
namespace {

// ---------------------------------------------------------------------------
// Unit-level paths on a small ProtectedL2 with online validation enabled.
// ---------------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  L2Config small_config(SchemeKind scheme = SchemeKind::kNonUniform) {
    L2Config cfg;
    cfg.geometry = cache::CacheGeometry{4096, 4, 64};  // 16 sets x 4 ways
    cfg.hit_latency = 10;
    cfg.scheme = scheme;
    cfg.maintain_codes = true;
    cfg.recovery.check_on_access = true;
    return cfg;
  }

  std::vector<u64> line_of(u64 v) { return std::vector<u64>(8, v); }

  /// Make (set, way 0) a dirty resident line holding `v` in every word.
  Addr make_dirty(ProtectedL2& l2, u64 set, u64 v) {
    const Addr a = l2.config().geometry.addr_of(1, set);
    l2.write(0, a, ~u64{0}, line_of(v));
    return a;
  }

  /// Make (set, way 0) a clean resident line (demand fill from memory).
  Addr make_clean(ProtectedL2& l2, u64 set) {
    const Addr a = l2.config().geometry.addr_of(1, set);
    l2.read(0, a);
    return a;
  }

  mem::SplitTransactionBus bus_{{8, 100}};
  mem::MemoryStore memory_;
};

TEST_F(RecoveryTest, CleanCheckIsFreeAndUnlogged) {
  ProtectedL2 l2(small_config(), bus_, memory_);
  make_clean(l2, 0);
  const Cycle done = l2.read(200, l2.config().geometry.addr_of(1, 0));
  EXPECT_EQ(done, 210u);  // plain hit latency, no recovery surcharge
  EXPECT_EQ(l2.recovery().stats().checks, 1u);
  EXPECT_EQ(l2.recovery().stats().errors, 0u);
  EXPECT_TRUE(l2.recovery().error_log().empty());
}

TEST_F(RecoveryTest, CorrectedErrorScrubsAndChargesLatency) {
  ProtectedL2 l2(small_config(), bus_, memory_);
  const u64 set = 1;
  const Addr a = make_dirty(l2, set, 0xBEEF);
  const auto pr = l2.cache_model().probe(a);
  ASSERT_TRUE(pr.hit);
  l2.cache_model().data(pr.set, pr.way)[3] =
      flip_bit(l2.cache_model().data(pr.set, pr.way)[3], 11);

  const Cycle done = l2.read(200, a);
  EXPECT_EQ(done, 200 + 10 + RecoveryController::kCorrectionLatency);
  EXPECT_EQ(l2.cache_model().data(pr.set, pr.way)[3], 0xBEEFu);  // repaired
  const auto& st = l2.recovery().stats();
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.corrected, 1u);
  EXPECT_EQ(st.stall_cycles, RecoveryController::kCorrectionLatency);
  ASSERT_EQ(l2.recovery().error_log().size(), 1u);
  const auto e = l2.recovery().error_log()[0];
  EXPECT_EQ(e.action, RecoveryAction::kScrubCorrected);
  EXPECT_EQ(e.outcome, ReadOutcome::kCorrected);
  EXPECT_TRUE(e.was_dirty);
  EXPECT_EQ(e.set, set);
}

TEST_F(RecoveryTest, ParityFailChargesBusRoundTripAndRecovers) {
  ProtectedL2 l2(small_config(), bus_, memory_);
  const u64 set = 2;
  const Addr a = make_clean(l2, set);
  const auto pr = l2.cache_model().probe(a);
  ASSERT_TRUE(pr.hit);
  const u64 golden = memory_.read_word(a);
  l2.cache_model().data(pr.set, pr.way)[0] = flip_bit(golden, 5);

  const Cycle done = l2.read(500, a);
  EXPECT_GT(done, 510u);  // re-fetch added a bus round trip to the hit
  EXPECT_EQ(l2.cache_model().data(pr.set, pr.way)[0], golden);
  const auto& st = l2.recovery().stats();
  EXPECT_EQ(st.refetched, 1u);
  EXPECT_EQ(st.retries, 0u);  // transient: first re-fetch already verifies
  ASSERT_EQ(l2.recovery().error_log().size(), 1u);
  EXPECT_EQ(l2.recovery().error_log()[0].action, RecoveryAction::kRefetched);
  EXPECT_EQ(l2.recovery().error_log()[0].retries, 0u);
}

TEST_F(RecoveryTest, PersistentFaultExhaustsRetriesAndDropsLine) {
  auto cfg = small_config();
  cfg.recovery.max_refetch_retries = 3;
  ProtectedL2 l2(cfg, bus_, memory_);
  const u64 set = 3;
  const Addr a = make_clean(l2, set);
  const auto pr = l2.cache_model().probe(a);
  ASSERT_TRUE(pr.hit);

  // A stuck cell: every re-fetch is immediately re-corrupted.
  l2.recovery().set_reassert_hook([&](u64 s, unsigned w) {
    l2.cache_model().data(s, w)[0] = flip_bit(l2.cache_model().data(s, w)[0], 5);
  });
  l2.cache_model().data(pr.set, pr.way)[0] =
      flip_bit(l2.cache_model().data(pr.set, pr.way)[0], 5);

  l2.read(500, a);
  const auto& st = l2.recovery().stats();
  EXPECT_EQ(st.retry_exhausted, 1u);
  EXPECT_EQ(st.retries, 3u);
  EXPECT_EQ(st.lines_dropped, 1u);
  ASSERT_GE(l2.recovery().error_log().size(), 1u);
  const auto e = l2.recovery().error_log()[0];
  EXPECT_EQ(e.action, RecoveryAction::kRetryExhausted);
  EXPECT_EQ(e.retries, 3u);
  // The demand access restarted as a miss and re-filled the line (the
  // stuck cell only re-asserts inside the retry loop here).
  EXPECT_TRUE(l2.cache_model().probe(a).hit);
}

TEST_F(RecoveryTest, DuePolicyDropLosesDirtyDataButKeepsRunning) {
  ProtectedL2 l2(small_config(), bus_, memory_);
  const u64 set = 4;
  const Addr a = make_dirty(l2, set, 0x77);
  const u64 before = memory_.read_word(a);
  const auto pr = l2.cache_model().probe(a);
  ASSERT_TRUE(pr.hit);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b101;  // double bit: DUE

  l2.read(500, a);
  const auto& st = l2.recovery().stats();
  EXPECT_EQ(st.due_events, 1u);
  EXPECT_EQ(st.dirty_lines_lost, 1u);
  EXPECT_EQ(st.lines_dropped, 1u);
  EXPECT_FALSE(l2.recovery().panicked());
  // The line was re-filled clean from memory's (stale) copy — corrupt data
  // never survived, the dirty update is gone, the machine keeps running.
  const auto pr2 = l2.cache_model().probe(a);
  ASSERT_TRUE(pr2.hit);
  EXPECT_FALSE(l2.cache_model().meta(pr2.set, pr2.way).dirty);
  EXPECT_EQ(l2.cache_model().data(pr2.set, pr2.way)[0], before);
  ASSERT_EQ(l2.recovery().error_log().size(), 1u);
  EXPECT_EQ(l2.recovery().error_log()[0].action,
            RecoveryAction::kDroppedRefetch);
}

TEST_F(RecoveryTest, DuePolicyPanicLatchesMachineCheck) {
  auto cfg = small_config();
  cfg.recovery.due_policy = DuePolicy::kPanic;
  ProtectedL2 l2(cfg, bus_, memory_);
  const Addr a = make_dirty(l2, 5, 0x77);
  const auto pr = l2.cache_model().probe(a);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;

  l2.read(500, a);
  EXPECT_TRUE(l2.recovery().panicked());
  EXPECT_EQ(l2.recovery().stats().panics, 1u);
  ASSERT_EQ(l2.recovery().error_log().size(), 1u);
  EXPECT_EQ(l2.recovery().error_log()[0].action, RecoveryAction::kPanicked);
}

TEST_F(RecoveryTest, DuePolicyPoisonBrandsLineAndCountsConsumers) {
  auto cfg = small_config();
  cfg.recovery.due_policy = DuePolicy::kPoison;
  ProtectedL2 l2(cfg, bus_, memory_);
  const Addr a = make_dirty(l2, 6, 0x77);
  const auto pr = l2.cache_model().probe(a);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;

  l2.read(500, a);
  const auto& st = l2.recovery().stats();
  EXPECT_EQ(st.lines_poisoned, 1u);
  EXPECT_EQ(st.lines_dropped, 0u);
  EXPECT_TRUE(l2.recovery().poisoned(pr.set, pr.way));
  EXPECT_TRUE(l2.cache_model().meta(pr.set, pr.way).dirty);  // line stays

  // Every later read of the branded line is a counted propagation.
  l2.read(600, a);
  l2.read(700, a);
  EXPECT_EQ(l2.recovery().stats().poison_reads, 2u);
}

TEST_F(RecoveryTest, PartialWriteKeepsUncorrectableWordDetected) {
  // A write re-encodes only the words it touched, so a poisoned word it
  // did not touch stays detectable instead of being laundered into fresh
  // check bits.
  for (const SchemeKind kind :
       {SchemeKind::kUniformEcc, SchemeKind::kNonUniform,
        SchemeKind::kSharedEccArray}) {
    SCOPED_TRACE(to_string(kind));
    auto cfg = small_config(kind);
    cfg.recovery.due_policy = DuePolicy::kPoison;
    mem::SplitTransactionBus bus{{8, 100}};
    mem::MemoryStore memory;
    ProtectedL2 l2(cfg, bus, memory);
    const Addr a = make_dirty(l2, 9, 0x77);
    const auto pr = l2.cache_model().probe(a);
    l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;  // 2 bits of word 0

    l2.read(500, a);
    EXPECT_EQ(l2.recovery().stats().due_events, 1u);
    l2.write(600, a, u64{1} << 3, line_of(0x99));  // word 3 only
    EXPECT_EQ(l2.recovery().stats().due_events, 2u);  // the write's check
    l2.read(700, a);
    EXPECT_EQ(l2.recovery().stats().due_events, 3u);
  }
}

TEST_F(RecoveryTest, WritebackValidationBlocksCorruptDirtyData) {
  ProtectedL2 l2(small_config(), bus_, memory_);
  const auto& geom = l2.config().geometry;
  const u64 set = 7;
  const Addr a = make_dirty(l2, set, 0x42);
  const u64 golden = memory_.read_word(a);
  const auto pr = l2.cache_model().probe(a);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;  // DUE in dirty payload

  // Force eviction via conflict fills: the replacement write-back must be
  // vetoed so the corrupt data never reaches memory.
  for (unsigned k = 1; k <= 4; ++k) l2.read(1000 * k, geom.addr_of(50 + k, set));
  EXPECT_EQ(memory_.read_word(a), golden);
  EXPECT_EQ(l2.wb_count(WbCause::kReplacement), 0u);
  EXPECT_EQ(l2.recovery().stats().dirty_lines_lost, 1u);
}

TEST_F(RecoveryTest, PoisonPolicyWritesBackAnywayAndCountsIt) {
  auto cfg = small_config();
  cfg.recovery.due_policy = DuePolicy::kPoison;
  ProtectedL2 l2(cfg, bus_, memory_);
  const auto& geom = cfg.geometry;
  const u64 set = 8;
  const Addr a = make_dirty(l2, set, 0x42);
  const auto pr = l2.cache_model().probe(a);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;

  for (unsigned k = 1; k <= 4; ++k) l2.read(1000 * k, geom.addr_of(50 + k, set));
  EXPECT_EQ(l2.wb_count(WbCause::kReplacement), 1u);
  EXPECT_EQ(l2.recovery().stats().poisoned_writebacks, 1u);
}

TEST_F(RecoveryTest, RepeatOffenderWayIsRetired) {
  auto cfg = small_config();
  cfg.recovery.retirement_threshold = 2;
  ProtectedL2 l2(cfg, bus_, memory_);
  const auto& geom = cfg.geometry;
  const u64 set = 9;
  const Addr a = make_clean(l2, set);
  const auto pr = l2.cache_model().probe(a);
  const unsigned way = pr.way;

  // Two transient errors at the same site cross the threshold.
  for (int i = 0; i < 2; ++i) {
    l2.cache_model().data(set, way)[0] =
        flip_bit(l2.cache_model().data(set, way)[0], 9);
    l2.read(500 + 100 * i, a);
  }
  EXPECT_TRUE(l2.cache_model().is_retired(set, way));
  EXPECT_EQ(l2.cache_model().active_ways(set), 3u);
  EXPECT_EQ(l2.cache_model().retired_ways(), 1u);
  EXPECT_EQ(l2.recovery().stats().ways_retired, 1u);
  EXPECT_GT(l2.retired_capacity_fraction(), 0.0);
  // The access that triggered retirement still completed (re-filled into an
  // active way), and new allocations keep skipping the fused slot.
  EXPECT_TRUE(l2.cache_model().probe(a).hit);
  for (unsigned k = 1; k <= 8; ++k) l2.read(2000 + k, geom.addr_of(60 + k, set));
  EXPECT_FALSE(l2.cache_model().meta(set, way).valid);
}

TEST_F(RecoveryTest, LastActiveWayIsNeverRetired) {
  auto cfg = small_config();
  cfg.recovery.retirement_threshold = 1;
  ProtectedL2 l2(cfg, bus_, memory_);
  const auto& geom = cfg.geometry;
  const u64 set = 10;
  // Walk every way of the set into retirement; the last must survive.
  for (unsigned round = 0; round < 8; ++round) {
    const Addr a = geom.addr_of(100 + round, set);
    l2.read(round * 5000, a);
    const auto pr = l2.cache_model().probe(a);
    ASSERT_TRUE(pr.hit);
    l2.cache_model().data(pr.set, pr.way)[0] =
        flip_bit(l2.cache_model().data(pr.set, pr.way)[0], 3);
    l2.read(round * 5000 + 100, a);
  }
  EXPECT_EQ(l2.cache_model().retired_ways(), geom.ways - 1);
  EXPECT_EQ(l2.cache_model().active_ways(set), 1u);
  // The direct-mapped remnant still serves the set.
  const Addr a = geom.addr_of(200, set);
  l2.read(100000, a);
  EXPECT_TRUE(l2.cache_model().probe(a).hit);
}

TEST_F(RecoveryTest, WritebackPathFaultsRetireViaTick) {
  auto cfg = small_config();
  cfg.recovery.retirement_threshold = 1;
  cfg.cleaning_interval = 1600;  // 16 sets -> one inspection per 100 cycles
  ProtectedL2 l2(cfg, bus_, memory_);
  const u64 set = 0;
  const Addr a = make_dirty(l2, set, 0x99);
  const auto pr = l2.cache_model().probe(a);
  const unsigned way = pr.way;
  l2.cache_model().data(set, way)[2] =
      flip_bit(l2.cache_model().data(set, way)[2], 7);

  // The cleaning FSM writes the idle dirty line back; outbound validation
  // corrects it and tallies the fault, and the same tick drains the queued
  // retirement — the way fuses off without ever being demand-hit again.
  for (Cycle t = 1; t <= 1700; ++t) l2.tick(t);
  EXPECT_EQ(l2.recovery().stats().corrected, 1u);
  EXPECT_TRUE(l2.cache_model().is_retired(set, way));
  EXPECT_EQ(l2.recovery().stats().ways_retired, 1u);
  EXPECT_EQ(memory_.read_word(a + 2 * 8), 0x99u);  // corrected data landed
}

TEST_F(RecoveryTest, ErrorLogIsRingKeepingNewestWithDroppedCount) {
  auto cfg = small_config();
  cfg.recovery.error_log_capacity = 4;
  ProtectedL2 l2(cfg, bus_, memory_);
  const Addr a = make_dirty(l2, 11, 0x1);
  const auto pr = l2.cache_model().probe(a);
  for (int i = 0; i < 7; ++i) {
    l2.cache_model().data(pr.set, pr.way)[1] =
        flip_bit(l2.cache_model().data(pr.set, pr.way)[1], 30);
    l2.read(500 + 10 * i, a);
  }
  const auto log = l2.recovery().error_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(l2.recovery().error_log_dropped(), 3u);
  // Ring semantics: the *newest* four errors survive (cycles 530..560, in
  // chronological order), the first three were overwritten.
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i].cycle, 530u + 10 * i);
}

TEST_F(RecoveryTest, ErrorLogStaysBoundedOverLongLivedProcess) {
  // A server process handles errors indefinitely; the log must never grow
  // past its capacity no matter how many arrive.
  auto cfg = small_config();
  cfg.recovery.error_log_capacity = 4;
  ProtectedL2 l2(cfg, bus_, memory_);
  const Addr a = make_dirty(l2, 11, 0x1);
  const auto pr = l2.cache_model().probe(a);
  constexpr int kErrors = 200;
  for (int i = 0; i < kErrors; ++i) {
    l2.cache_model().data(pr.set, pr.way)[1] =
        flip_bit(l2.cache_model().data(pr.set, pr.way)[1], 30);
    l2.read(500 + 10 * i, a);
    EXPECT_LE(l2.recovery().error_log().size(), 4u);
  }
  EXPECT_EQ(l2.recovery().stats().errors, u64{kErrors});
  EXPECT_EQ(l2.recovery().error_log().size(), 4u);
  EXPECT_EQ(l2.recovery().error_log_dropped(), u64{kErrors - 4});
  // Snapshot is chronological: strictly increasing cycles, ending at the
  // last error.
  const auto log = l2.recovery().error_log();
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LT(log[i - 1].cycle, log[i].cycle);
  EXPECT_EQ(log.back().cycle, 500u + 10 * (kErrors - 1));
}

TEST_F(RecoveryTest, ResetStatsKeepsMachineState) {
  auto cfg = small_config();
  cfg.recovery.due_policy = DuePolicy::kPanic;
  ProtectedL2 l2(cfg, bus_, memory_);
  const Addr a = make_dirty(l2, 12, 0x1);
  const auto pr = l2.cache_model().probe(a);
  l2.cache_model().data(pr.set, pr.way)[0] ^= 0b11;
  l2.read(500, a);
  ASSERT_TRUE(l2.recovery().panicked());
  ASSERT_GT(l2.recovery().fault_count(pr.set, pr.way), 0u);

  l2.recovery().reset_stats();
  EXPECT_EQ(l2.recovery().stats(), RecoveryStats{});
  EXPECT_TRUE(l2.recovery().error_log().empty());
  // The fault map and the panic latch are machine state, not metrics.
  EXPECT_GT(l2.recovery().fault_count(pr.set, pr.way), 0u);
  EXPECT_TRUE(l2.recovery().panicked());
}

TEST_F(RecoveryTest, Names) {
  EXPECT_STREQ(to_string(DuePolicy::kPanic), "panic");
  EXPECT_STREQ(to_string(DuePolicy::kDropRefetch), "drop-refetch");
  EXPECT_STREQ(to_string(DuePolicy::kPoison), "poison");
  EXPECT_STREQ(to_string(RecoveryAction::kScrubCorrected), "scrub-corrected");
  EXPECT_STREQ(to_string(RecoveryAction::kRefetched), "refetched");
  EXPECT_STREQ(to_string(RecoveryAction::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(to_string(RecoveryAction::kDroppedRefetch), "dropped-refetch");
  EXPECT_STREQ(to_string(RecoveryAction::kPoisoned), "poisoned");
  EXPECT_STREQ(to_string(RecoveryAction::kPanicked), "panicked");
  EXPECT_STREQ(to_string(RecoveryAction::kWayRetired), "way-retired");
}

// ---------------------------------------------------------------------------
// End-to-end: a seeded strike campaign on the full simulated system.
// ---------------------------------------------------------------------------

sim::SystemConfig campaign_config() {
  sim::ExperimentOptions eo;
  eo.scheme = SchemeKind::kSharedEccArray;
  eo.instructions = 400'000;
  eo.warmup_instructions = 0;  // stats from cycle 0: the early stuck-fault
                               // retries/retirements must stay visible
  eo.seed = 42;
  eo.cleaning_interval = u64{1} << 18;
  eo.strikes_enabled = true;
  eo.strike_rate_scale = 2e9;
  eo.strike_double_bit_fraction = 0.25;
  eo.retirement_threshold = 4;
  // A permanently stuck data cell in each of four sets: the repeat
  // offenders that must walk their sites over the retirement threshold.
  for (u64 set : {0u, 1u, 2u, 3u})
    eo.stuck_faults.push_back({fault::FaultTarget::kData, set, /*way=*/0,
                               /*bit=*/5, /*stuck_high=*/true, /*start=*/0,
                               /*period=*/0});
  return sim::make_system_config("gzip", eo);
}

TEST(StrikeCampaign, DemonstratesAllRecoveryPathsAndRetirement) {
  sim::System system(campaign_config());
  const sim::RunResult r = system.run();

  // The run completed with degraded capacity instead of aborting.
  EXPECT_GT(r.core.cycles, 0u);
  EXPECT_GT(r.ipc(), 0.0);
  EXPECT_FALSE(r.panicked);

  // All three recovery paths fired...
  EXPECT_GT(r.recovery.corrected, 0u);
  EXPECT_GT(r.recovery.refetched, 0u);
  EXPECT_GT(r.recovery.due_events, 0u);
  EXPECT_GT(r.recovery.retries, 0u);
  EXPECT_GT(r.strikes.strikes, 0u);
  EXPECT_GT(r.strikes.stuck_reasserts, 0u);

  // ...and the persistent stuck-at sites drove ways into retirement.
  EXPECT_GE(r.retired_ways, 1u);
  EXPECT_GT(r.retired_capacity_fraction, 0.0);
  EXPECT_EQ(r.retired_ways,
            system.hierarchy().l2().cache_model().retired_ways());
}

TEST(StrikeCampaign, SameSeedSameErrorLogAndStats) {
  sim::System a(campaign_config());
  sim::System b(campaign_config());
  const sim::RunResult ra = a.run();
  const sim::RunResult rb = b.run();

  EXPECT_EQ(ra.recovery, rb.recovery);
  EXPECT_EQ(ra.strikes, rb.strikes);
  EXPECT_EQ(ra.retired_ways, rb.retired_ways);
  EXPECT_EQ(ra.core.cycles, rb.core.cycles);
  const auto& la = a.hierarchy().l2().recovery().error_log();
  const auto& lb = b.hierarchy().l2().recovery().error_log();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
  EXPECT_EQ(a.hierarchy().l2().recovery().error_log_dropped(),
            b.hierarchy().l2().recovery().error_log_dropped());
}

TEST(StrikeCampaign, StrikeProcessScalesWithProvisionedBits) {
  sim::SystemConfig cfg = campaign_config();
  sim::System system(cfg);
  const auto* sp = system.hierarchy().strikes();
  ASSERT_NE(sp, nullptr);
  // 1MB L2 data alone is 8Mi bits; parity + shared ECC add more.
  EXPECT_GT(sp->provisioned_bits(), u64{8} * 1024 * 1024);
  EXPECT_GT(sp->strike_probability(), 0.0);
  EXPECT_LE(sp->strike_probability(), 1.0);
}

}  // namespace
}  // namespace aeep::protect
