// Tests for the extension modules: cleaning-policy variants (decay counter,
// eager-idle), the protection energy model, and the analytic reliability
// estimator.
#include <gtest/gtest.h>

#include "fault/reliability.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/energy_model.hpp"
#include "protect/protected_l2.hpp"

namespace aeep::protect {
namespace {

// ---------------------------------------------------------------------------
// Cleaning-policy variants (written-bit and naive covered in protect_test).
// ---------------------------------------------------------------------------

class PolicyTest : public ::testing::Test {
 protected:
  L2Config config(CleaningPolicy policy, unsigned threshold = 2) {
    L2Config cfg;
    cfg.geometry = cache::CacheGeometry{4096, 4, 64};  // 16 sets
    cfg.scheme = SchemeKind::kNonUniform;
    cfg.cleaning_interval = 1600;  // one set per 100 cycles
    cfg.cleaning_policy = policy;
    cfg.decay_threshold = threshold;
    return cfg;
  }
  std::vector<u64> line_of(u64 v) { return std::vector<u64>(8, v); }

  /// Which inspection of set 0 (1st, 2nd, ...; 0 = none of the first four)
  /// cleans a line written `writes` times in a row. Set 0 is inspected at
  /// 100, 1700, 3300, ...
  unsigned cleaning_inspection(CleaningPolicy policy, unsigned threshold,
                               unsigned writes) {
    mem::SplitTransactionBus bus{{8, 100}};
    mem::MemoryStore memory;
    ProtectedL2 l2(config(policy, threshold), bus, memory);
    for (unsigned w = 0; w < writes; ++w) l2.write(w, 0x0, 0x1, line_of(w + 1));
    for (Cycle t = writes; t < 100 + 4 * 1600; ++t) {
      l2.tick(t);
      if (l2.wb_count(WbCause::kCleaning) > 0)
        return static_cast<unsigned>((t - 100) / 1600 + 1);
    }
    return 0;
  }

  mem::SplitTransactionBus bus_{{8, 100}};
  mem::MemoryStore memory_;
};

TEST_F(PolicyTest, DecayCounterWaitsThresholdInspections) {
  // A line written once sits write-idle for `threshold` inspections.
  for (const unsigned threshold : {1u, 2u, 3u}) {
    EXPECT_EQ(cleaning_inspection(CleaningPolicy::kDecayCounter, threshold, 1),
              threshold);
  }
}

TEST_F(PolicyTest, WrittenBitIsNotTheOneBitDecayCounter) {
  // Every write resets a decay counter, the dirtying write included; the
  // written bit is set only by a write to an already-dirty line.
  EXPECT_EQ(cleaning_inspection(CleaningPolicy::kWrittenBit, 2, 1), 1u);
  EXPECT_EQ(cleaning_inspection(CleaningPolicy::kWrittenBit, 2, 2), 2u);
  EXPECT_EQ(cleaning_inspection(CleaningPolicy::kDecayCounter, 1, 2), 1u);
  EXPECT_EQ(cleaning_inspection(CleaningPolicy::kDecayCounter, 2, 2), 2u);
}

TEST_F(PolicyTest, DecayCounterResetByWrites) {
  ProtectedL2 l2(config(CleaningPolicy::kDecayCounter, 2), bus_, memory_);
  l2.write(0, 0x0, 0x1, line_of(1));
  // Inspections at 100 (age 1); rewrite at 200 resets the counter, so the
  // inspection at 1700 only re-ages it (1) and 3300 cleans (2).
  for (Cycle t = 1; t <= 150; ++t) l2.tick(t);
  l2.write(200, 0x0, 0x2, line_of(2));
  Cycle t = 201;
  for (; t <= 3200; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 0u);
  for (; t <= 3400; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
}

TEST_F(PolicyTest, EagerIdleCleansOnlyWhenBusFree) {
  ProtectedL2 l2(config(CleaningPolicy::kEagerIdle), bus_, memory_);
  l2.write(0, 0x0, 0x1, line_of(1));
  // Saturate the bus right before the inspection of set 0 at t=100.
  bus_.write(99, 0x100000, 64);  // busy through ~107
  for (Cycle t = 1; t <= 110; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 0u);  // bus was busy at t=100
  // Next pass (t=1700) finds the bus idle and cleans.
  for (Cycle t = 111; t <= 1750; ++t) l2.tick(t);
  EXPECT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
}

TEST_F(PolicyTest, EagerIdlePicksLruDirtyLine) {
  ProtectedL2 l2(config(CleaningPolicy::kEagerIdle), bus_, memory_);
  const auto& geom = l2.config().geometry;
  const Addr a = geom.addr_of(1, 0), b = geom.addr_of(2, 0);
  l2.write(0, a, 0x1, line_of(0xA));   // older
  l2.write(50, b, 0x1, line_of(0xB));  // newer
  for (Cycle t = 51; t <= 110; ++t) l2.tick(t);
  ASSERT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
  // a (the LRU dirty line) was cleaned; b is still dirty.
  const auto pa = l2.cache_model().probe(a);
  const auto pb = l2.cache_model().probe(b);
  EXPECT_FALSE(l2.cache_model().meta(pa.set, pa.way).dirty);
  EXPECT_TRUE(l2.cache_model().meta(pb.set, pb.way).dirty);
}

TEST(PolicyNames, ToString) {
  EXPECT_STREQ(to_string(CleaningPolicy::kWrittenBit), "written-bit");
  EXPECT_STREQ(to_string(CleaningPolicy::kNaive), "naive");
  EXPECT_STREQ(to_string(CleaningPolicy::kDecayCounter), "decay-counter");
  EXPECT_STREQ(to_string(CleaningPolicy::kEagerIdle), "eager-idle");
}

// ---------------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------------

EnergyEvents typical_events() {
  EnergyEvents ev;
  ev.l2_reads = 100000;
  ev.l2_writes = 30000;
  ev.l2_fills = 20000;
  ev.clean_read_fraction_permille = 600;
  ev.writebacks = 21000;
  ev.baseline_writebacks = 20000;
  return ev;
}

TEST(EnergyModel, ProposedCheaperThanUniformOnCleanReads) {
  const auto ev = typical_events();
  const auto uni = estimate_energy(SchemeKind::kUniformEcc, ev,
                                   cache::kL2Geometry, 1);
  const auto prop = estimate_energy(SchemeKind::kSharedEccArray, ev,
                                    cache::kL2Geometry, 1);
  EXPECT_GT(uni.total_pj(), 0.0);
  EXPECT_LT(prop.codec_pj, uni.codec_pj);
  EXPECT_LT(prop.check_storage_pj, uni.check_storage_pj);
}

TEST(EnergyModel, ExtraTrafficOnlyAboveBaseline) {
  auto ev = typical_events();
  ev.writebacks = ev.baseline_writebacks;  // no extra traffic
  const auto prop = estimate_energy(SchemeKind::kSharedEccArray, ev,
                                    cache::kL2Geometry, 1);
  EXPECT_DOUBLE_EQ(prop.extra_traffic_pj, 0.0);
  ev.writebacks = ev.baseline_writebacks + 500;
  const auto prop2 = estimate_energy(SchemeKind::kSharedEccArray, ev,
                                     cache::kL2Geometry, 1);
  EXPECT_GT(prop2.extra_traffic_pj, 0.0);
}

TEST(EnergyModel, BaselineHasNoExtraTrafficTerm) {
  const auto uni = estimate_energy(SchemeKind::kUniformEcc, typical_events(),
                                   cache::kL2Geometry, 1);
  EXPECT_DOUBLE_EQ(uni.extra_traffic_pj, 0.0);
}

TEST(EnergyModel, MoreCleanReadsCheaperProposed) {
  auto ev = typical_events();
  ev.clean_read_fraction_permille = 200;
  const auto dirty_heavy = estimate_energy(SchemeKind::kSharedEccArray, ev,
                                           cache::kL2Geometry, 1);
  ev.clean_read_fraction_permille = 900;
  const auto clean_heavy = estimate_energy(SchemeKind::kSharedEccArray, ev,
                                           cache::kL2Geometry, 1);
  EXPECT_LT(clean_heavy.codec_pj, dirty_heavy.codec_pj);
  EXPECT_LT(clean_heavy.check_storage_pj, dirty_heavy.check_storage_pj);
}

}  // namespace
}  // namespace aeep::protect

namespace aeep::fault {
namespace {

ResidencyProfile typical_profile() {
  ResidencyProfile pr;
  pr.avg_clean_lines = 8000;
  pr.avg_dirty_lines = 8000;
  pr.clean_residency = 1e6;
  pr.dirty_residency = 1e6;
  return pr;
}

TEST(Reliability, UniformEccHasNoSdc) {
  const auto e = estimate_uniform_ecc(typical_profile());
  EXPECT_DOUBLE_EQ(e.sdc_rate, 0.0);
  EXPECT_GT(e.due_rate, 0.0);
}

TEST(Reliability, ParityOnlyDueDominatesEverything) {
  const auto parity = estimate_parity_only(typical_profile());
  const auto paper = estimate_non_uniform(typical_profile());
  const auto uniform = estimate_uniform_ecc(typical_profile());
  // Single-strike loss vs double-strike loss: orders of magnitude apart.
  EXPECT_GT(parity.due_rate, paper.due_rate * 1e6);
  EXPECT_GT(parity.due_rate, uniform.due_rate * 1e6);
}

TEST(Reliability, PaperSchemeMatchesUniformDue) {
  const auto paper = estimate_non_uniform(typical_profile());
  const auto uniform = estimate_uniform_ecc(typical_profile());
  // Same dirty population, same granule: identical DUE exposure.
  EXPECT_DOUBLE_EQ(paper.due_rate, uniform.due_rate);
  // The cost of the 59% saving: a (tiny) clean-line SDC term.
  EXPECT_GT(paper.sdc_rate, 0.0);
  EXPECT_LT(paper.sdc_rate, paper.due_rate * 2.0);
}

TEST(Reliability, CleaningShrinksDueExposure) {
  auto with_cleaning = typical_profile();
  with_cleaning.avg_dirty_lines = 3000;   // cleaned population
  with_cleaning.dirty_residency = 3e5;    // shorter dirty windows
  const auto before = estimate_non_uniform(typical_profile());
  const auto after = estimate_non_uniform(with_cleaning);
  EXPECT_LT(after.due_rate, before.due_rate);
}

TEST(Reliability, RatesScaleQuadraticallyWithLambda) {
  ReliabilityParams p1, p2;
  p1.lambda_per_bit_cycle = 1e-19;
  p2.lambda_per_bit_cycle = 2e-19;
  const auto e1 = estimate_non_uniform(typical_profile(), p1);
  const auto e2 = estimate_non_uniform(typical_profile(), p2);
  EXPECT_NEAR(e2.sdc_rate / e1.sdc_rate, 4.0, 1e-6);  // double-strike term
  EXPECT_NEAR(e2.due_rate / e1.due_rate, 4.0, 1e-6);
}

TEST(Reliability, FitConversion) {
  // 1e-15 events/cycle at 1 GHz = 1e-6/s = 3.6e-3/hour = 3.6e6 FIT.
  EXPECT_NEAR(ReliabilityEstimate::to_fit(1e-15, 1e9), 3.6e6, 1.0);
}

TEST(Reliability, ZeroWindowMeansNoDoubleStrikes) {
  auto pr = typical_profile();
  pr.clean_residency = 0;
  pr.dirty_residency = 0;
  const auto e = estimate_non_uniform(pr);
  EXPECT_DOUBLE_EQ(e.sdc_rate, 0.0);
  EXPECT_DOUBLE_EQ(e.due_rate, 0.0);
}

}  // namespace
}  // namespace aeep::fault
