// Tests for the correctness-tooling layer (src/verify): the runtime
// invariant auditor, the golden memory model, the deliberately-broken
// scheme fixtures, and the differential model checker with its shrinking
// counterexample machinery.
#include <gtest/gtest.h>

#include "cache/write_buffer.hpp"
#include "common/rng.hpp"
#include "verify/auditor.hpp"
#include "verify/broken.hpp"
#include "verify/golden.hpp"
#include "verify/modelcheck.hpp"

using namespace aeep;
using protect::L2Config;
using protect::ProtectedL2;
using protect::SchemeKind;
using protect::WbCause;
using verify::Auditor;
using verify::BrokenKind;
using verify::ModelCheckConfig;
using verify::Op;
using verify::RunReport;

namespace {

bool has_rule(const Auditor& auditor, const std::string& rule) {
  for (const verify::Violation& v : auditor.violations())
    if (v.rule == rule) return true;
  return false;
}

std::vector<u64> line_of(u64 v, unsigned words = 8) {
  return std::vector<u64>(words, v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Golden model
// ---------------------------------------------------------------------------

TEST(GoldenMemory, PristineMatchesMemoryStoreThenTracksNewest) {
  verify::GoldenMemory golden;
  EXPECT_EQ(golden.read(0x40), mem::MemoryStore::pristine_word(0x40));
  golden.write(0x40, 1);
  golden.write(0x40, 2);
  golden.write(0x48, 3);
  EXPECT_EQ(golden.read(0x40), 2u);
  EXPECT_EQ(golden.read(0x48), 3u);
  EXPECT_EQ(golden.words_written(), 2u);
  EXPECT_EQ(golden.read(0x50), mem::MemoryStore::pristine_word(0x50));
}

// ---------------------------------------------------------------------------
// Op encoding
// ---------------------------------------------------------------------------

TEST(OpCodec, RoundTrip) {
  const std::vector<Op> ops = {
      {Op::Kind::kRead, 14, 0, 0},
      {Op::Kind::kWrite, 3, 1, 0x7F},
      {Op::Kind::kTick, 0, 0, 0},
      {Op::Kind::kWrite, 0, 0, 0x00},
      {Op::Kind::kWrite, 255, 7, 0xAB},
  };
  const std::string text = verify::encode_ops(ops);
  EXPECT_EQ(text, "r14,w3.1:7f,t,w0.0:00,w255.7:ab");
  const auto decoded = verify::decode_ops(text);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ops);
}

TEST(OpCodec, RejectsMalformed) {
  for (const char* bad :
       {"x", "w3", "w3.1", "w3.1:", "w3.1:z7", "r1;t", "r", "w.1:00", ",r1"}) {
    EXPECT_FALSE(verify::decode_ops(bad).has_value()) << bad;
  }
  const auto empty = verify::decode_ops("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// ---------------------------------------------------------------------------
// Auditor on a live ProtectedL2
// ---------------------------------------------------------------------------

class AuditorTest : public ::testing::Test {
 protected:
  L2Config config(SchemeKind scheme, Cycle interval = 0) {
    L2Config cfg;
    cfg.geometry = cache::CacheGeometry{4096, 4, 64};  // 16 sets
    cfg.scheme = scheme;
    cfg.cleaning_interval = interval;
    cfg.maintain_codes = true;
    return cfg;
  }

  mem::SplitTransactionBus bus_{{8, 100}};
  mem::MemoryStore memory_;
};

TEST_F(AuditorTest, CleanUnderChurnForAllSchemes) {
  for (const SchemeKind kind : {SchemeKind::kUniformEcc,
                                SchemeKind::kNonUniform,
                                SchemeKind::kSharedEccArray}) {
    mem::SplitTransactionBus bus{{8, 100}};
    mem::MemoryStore memory;
    ProtectedL2 l2(config(kind, 1600), bus, memory);
    Auditor auditor(l2, {/*check_every=*/1});
    Xorshift64Star rng(7);
    Cycle t = 0;
    for (int i = 0; i < 2000; ++i) {
      t += 1 + rng.next_below(4);
      l2.tick(t);
      const Addr addr =
          l2.config().geometry.addr_of(rng.next_below(12), rng.next_below(16));
      if (rng.chance(0.5))
        l2.write(t, addr, u64{1} << rng.next_below(8), line_of(rng.next()));
      else
        l2.read(t, addr);
    }
    EXPECT_TRUE(auditor.clean()) << auditor.report();
    EXPECT_GE(auditor.ops_seen(), 2000u);
    EXPECT_GE(auditor.audits_run(), 2000u);
    EXPECT_EQ(auditor.report(), "");
  }
}

TEST_F(AuditorTest, CheckEveryNAuditsLess) {
  ProtectedL2 l2(config(SchemeKind::kSharedEccArray), bus_, memory_);
  Auditor auditor(l2, {/*check_every=*/10});
  for (int i = 0; i < 100; ++i)
    l2.write(static_cast<Cycle>(i) * 4, 0x0, 0x1, line_of(1));
  EXPECT_EQ(auditor.ops_seen(), 100u);
  EXPECT_EQ(auditor.audits_run(), 10u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST_F(AuditorTest, DetachesOnDestruction) {
  ProtectedL2 l2(config(SchemeKind::kNonUniform), bus_, memory_);
  {
    Auditor auditor(l2);
    l2.write(0, 0x0, 0x1, line_of(1));
    EXPECT_EQ(auditor.ops_seen(), 1u);
  }
  // The hook is gone; further ops must not touch the dead auditor.
  l2.write(100, 0x40, 0x1, line_of(2));
  Auditor second(l2);
  l2.read(200, 0x0);
  EXPECT_EQ(second.ops_seen(), 1u);
}

TEST_F(AuditorTest, CatchesOverCommittedDirtyLines) {
  auto cfg = config(SchemeKind::kSharedEccArray);
  cfg.scheme_factory = verify::broken_scheme_factory(BrokenKind::kOverCommit);
  ProtectedL2 l2(cfg, bus_, memory_);
  Auditor auditor(l2);
  const u64 set = 2;
  l2.write(0, cfg.geometry.addr_of(1, set), 0x1, line_of(0xA));
  l2.write(100, cfg.geometry.addr_of(2, set), 0x1, line_of(0xB));
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(has_rule(auditor, "dirty-per-set-exceeds-k")) << auditor.report();
  EXPECT_TRUE(has_rule(auditor, "dirty-without-entry")) << auditor.report();
}

TEST_F(AuditorTest, CatchesLeakedEccEntry) {
  auto cfg = config(SchemeKind::kSharedEccArray, /*interval=*/1600);
  cfg.scheme_factory = verify::broken_scheme_factory(BrokenKind::kLeakEntry);
  ProtectedL2 l2(cfg, bus_, memory_);
  Auditor auditor(l2);
  l2.write(0, 0x0, 0x1, line_of(0xC));
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  // Cleaning writes the line back; the broken scheme keeps the ECC entry,
  // leaving it owned by a clean line.
  for (Cycle t = 1; t <= 1700; ++t) l2.tick(t);
  ASSERT_EQ(l2.wb_count(WbCause::kCleaning), 1u);
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(has_rule(auditor, "entry-implies-dirty")) << auditor.report();
}

TEST_F(AuditorTest, CatchesStaleParity) {
  auto cfg = config(SchemeKind::kSharedEccArray);
  cfg.scheme_factory = verify::broken_scheme_factory(BrokenKind::kStaleParity);
  ProtectedL2 l2(cfg, bus_, memory_);
  Auditor auditor(l2);
  l2.write(0, 0x0, 0x1, line_of(0xD));
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(has_rule(auditor, "code-mismatch-parity")) << auditor.report();
  // The violation carries replay context.
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].op_seq, 1u);
  EXPECT_NE(auditor.violations()[0].to_string().find("code-mismatch-parity"),
            std::string::npos);
}

TEST_F(AuditorTest, WriteBufferConsistency) {
  ProtectedL2 l2(config(SchemeKind::kNonUniform), bus_, memory_);
  Auditor auditor(l2);
  cache::WriteBuffer wbuf(/*entries=*/4, /*line_bytes=*/64);
  EXPECT_EQ(auditor.audit_write_buffer(wbuf), 0u);
  // Two stores to one line coalesce; a third line entry stays separate.
  EXPECT_EQ(wbuf.push(0x100, 1), cache::WriteBuffer::PushResult::kNew);
  EXPECT_EQ(wbuf.push(0x108, 2), cache::WriteBuffer::PushResult::kCoalesced);
  EXPECT_EQ(wbuf.push(0x200, 3), cache::WriteBuffer::PushResult::kNew);
  EXPECT_EQ(auditor.audit_write_buffer(wbuf), 0u);
  EXPECT_TRUE(auditor.clean());
}

// ---------------------------------------------------------------------------
// Model checker
// ---------------------------------------------------------------------------

TEST(ModelCheck, CleanRandomSequencesForAllSchemes) {
  for (const SchemeKind kind : {SchemeKind::kUniformEcc,
                                SchemeKind::kNonUniform,
                                SchemeKind::kSharedEccArray}) {
    ModelCheckConfig cfg;
    cfg.scheme = kind;
    cfg.entries_per_set = kind == SchemeKind::kSharedEccArray ? 2 : 1;
    cfg.cleaning_interval = 400;
    const std::vector<Op> ops = verify::random_ops(cfg, 11, 2000);
    const RunReport report = verify::run_sequence(cfg, ops);
    EXPECT_TRUE(report.ok) << cfg.scheme_label() << ": "
                           << report.failure->detail;
    EXPECT_EQ(report.ops_run, 2000u);
    EXPECT_GT(report.audits, 0u);
  }
}

TEST(ModelCheck, FaultInjectionHealsEverything) {
  ModelCheckConfig cfg;
  cfg.scheme = SchemeKind::kSharedEccArray;
  cfg.entries_per_set = 2;
  cfg.inject_faults = true;
  cfg.fault_every = 5;
  cfg.seed = 3;
  const std::vector<Op> ops = verify::random_ops(cfg, 23, 3000);
  const RunReport report = verify::run_sequence(cfg, ops);
  EXPECT_TRUE(report.ok) << report.failure->detail;
  EXPECT_GT(report.faults_injected, 100u);
}

TEST(ModelCheck, EccWritebackAccountingBalances) {
  ModelCheckConfig cfg;
  cfg.scheme = SchemeKind::kSharedEccArray;
  cfg.entries_per_set = 1;
  // Alternate writes to two lines of the same set (4-set geometry: lines 0
  // and 4 both map to set 0) — every other write forces an ECC eviction.
  std::vector<Op> ops;
  for (u16 i = 0; i < 40; ++i)
    ops.push_back({Op::Kind::kWrite, static_cast<u16>((i % 2) * 4), 0,
                   static_cast<u8>(i)});
  const RunReport report = verify::run_sequence(cfg, ops);
  ASSERT_TRUE(report.ok) << report.failure->detail;
  const u64 ecc_wb = report.wb[static_cast<unsigned>(WbCause::kEccEviction)];
  EXPECT_GT(ecc_wb, 0u);
  EXPECT_EQ(ecc_wb, report.ecc_entry_evictions);
}

TEST(ModelCheck, DifferentialSchemesAgree) {
  ModelCheckConfig cfg;
  cfg.entries_per_set = 2;
  cfg.cleaning_interval = 400;
  const std::vector<Op> ops = verify::random_ops(cfg, 31, 1500);
  const verify::DiffReport diff = verify::run_differential(cfg, ops);
  EXPECT_TRUE(diff.ok) << diff.detail;
  ASSERT_EQ(diff.runs.size(), 3u);
  // Allocation behaviour is scheme-independent.
  EXPECT_EQ(diff.runs[0].cache.fills, diff.runs[1].cache.fills);
  EXPECT_EQ(diff.runs[0].cache.fills, diff.runs[2].cache.fills);
  // Only the shared scheme generates ECC-eviction traffic.
  const auto ecc = static_cast<unsigned>(WbCause::kEccEviction);
  EXPECT_EQ(diff.runs[0].wb[ecc], 0u);
  EXPECT_EQ(diff.runs[1].wb[ecc], 0u);
}

TEST(ModelCheck, ExhaustiveShortSequencesAreClean) {
  ModelCheckConfig cfg;
  cfg.scheme = SchemeKind::kSharedEccArray;
  const verify::ExhaustiveReport report =
      verify::exhaustive_check(cfg, /*alphabet_lines=*/2, /*len=*/3);
  EXPECT_FALSE(report.counterexample.has_value());
  // Alphabet: 2 reads + 2 writes + tick = 5 symbols; 5^3 sequences.
  EXPECT_EQ(report.sequences, 125u);
  EXPECT_EQ(report.ops, 375u);
}

TEST(ModelCheck, BrokenSchemesAreCaughtAndShrunk) {
  for (const BrokenKind kind : {BrokenKind::kOverCommit,
                                BrokenKind::kLeakEntry,
                                BrokenKind::kStaleParity}) {
    ModelCheckConfig cfg;
    cfg.scheme = SchemeKind::kSharedEccArray;
    cfg.cleaning_interval = 400;
    cfg.scheme_factory = verify::broken_scheme_factory(kind);
    cfg.label = std::string("broken-") + verify::to_string(kind);

    std::vector<Op> failing;
    for (u64 seed = 1; seed <= 8 && failing.empty(); ++seed) {
      std::vector<Op> ops = verify::random_ops(cfg, seed * 31 + 7, 400);
      if (!verify::run_sequence(cfg, ops).ok) failing = std::move(ops);
    }
    ASSERT_FALSE(failing.empty()) << cfg.label << " escaped the checker";

    const std::vector<Op> minimal = verify::shrink(cfg, failing);
    ASSERT_FALSE(minimal.empty());
    EXPECT_LE(minimal.size(), 4u) << cfg.label << ": "
                                  << verify::encode_ops(minimal);
    // The minimized sequence still fails, and survives a replay round-trip
    // through its textual encoding.
    EXPECT_FALSE(verify::run_sequence(cfg, minimal).ok);
    const auto replayed = verify::decode_ops(verify::encode_ops(minimal));
    ASSERT_TRUE(replayed.has_value());
    const RunReport report = verify::run_sequence(cfg, *replayed);
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.failure->kind, "invariant");
  }
}

TEST(ModelCheck, ShrinkKeepsCorrectSequencesIntact) {
  // shrink()'s precondition is a failing sequence; on a passing one it must
  // return the input unchanged rather than loop.
  ModelCheckConfig cfg;
  const std::vector<Op> ops = verify::random_ops(cfg, 5, 50);
  ASSERT_TRUE(verify::run_sequence(cfg, ops).ok);
  EXPECT_EQ(verify::shrink(cfg, ops), ops);
}
