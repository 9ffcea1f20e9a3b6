// Tests for the CPU substrate: branch predictor learning, BTB, TLB,
// functional-unit structural hazards, and the out-of-order core's pipeline
// behaviour against a scripted micro-op source and a stub memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/core.hpp"
#include "cpu/func_units.hpp"
#include "cpu/memory_iface.hpp"
#include "cpu/tlb.hpp"
#include "cpu/uop.hpp"

namespace aeep::cpu {
namespace {

// ---------------------------------------------------------------------------
// Branch predictor
// ---------------------------------------------------------------------------

TEST(BranchPredictor, LearnsAlwaysTakenBranch) {
  BranchPredictor bp;
  const Addr pc = 0x400100, target = 0x400040;
  // Warm until the global history register saturates (12 bits) so the
  // gshare index becomes stable, then the counter stays trained.
  for (int i = 0; i < 20; ++i) bp.update(pc, true, target);
  unsigned correct = 0;
  for (int i = 0; i < 100; ++i)
    if (bp.update(pc, true, target)) ++correct;
  EXPECT_EQ(correct, 100u);
}

TEST(BranchPredictor, LearnsShortLoopPattern) {
  // taken x3, not-taken, repeated: a 12-bit-history gshare learns this
  // perfectly after warm-up.
  BranchPredictor bp;
  const Addr pc = 0x400200, target = 0x4001C0;
  for (int warm = 0; warm < 200; ++warm)
    bp.update(pc, warm % 4 != 3, target);
  unsigned correct = 0;
  for (int i = 0; i < 400; ++i)
    if (bp.update(pc, i % 4 != 3, target)) ++correct;
  EXPECT_GT(correct, 390u);
}

TEST(BranchPredictor, BtbMissOnTakenIsMispredict) {
  BranchPredictor bp;
  const Addr pc = 0x400300;
  // Train direction without this PC ever entering the BTB... first taken
  // update must be a target mispredict.
  EXPECT_FALSE(bp.update(pc, true, 0x400000));
  // Once history saturates and the counter trains, prediction holds.
  for (int i = 0; i < 20; ++i) bp.update(pc, true, 0x400000);
  EXPECT_TRUE(bp.update(pc, true, 0x400000));
}

TEST(BranchPredictor, TargetChangeIsMispredict) {
  BranchPredictor bp;
  const Addr pc = 0x400400;
  for (int i = 0; i < 8; ++i) bp.update(pc, true, 0x400000);
  EXPECT_FALSE(bp.update(pc, true, 0x400080));  // new target
}

TEST(BranchPredictor, StatsAccumulate) {
  BranchPredictor bp;
  for (int i = 0; i < 50; ++i) bp.update(0x400500 + 4 * (i % 5), i % 2 == 0, 0x400000);
  EXPECT_EQ(bp.stats().lookups, 50u);
  EXPECT_GT(bp.stats().mispredicts(), 0u);
  EXPECT_GT(bp.stats().mispredict_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------------

TEST(TlbTest, MissThenHit) {
  Tlb tlb({64, 4, 4096, 30});
  EXPECT_EQ(tlb.access(0x12345000, 0), 30u);  // cold miss
  EXPECT_EQ(tlb.access(0x12345ABC, 1), 0u);   // same page hits
  EXPECT_EQ(tlb.stats().accesses, 2u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, LruReplacementWithinSet) {
  Tlb tlb({4, 4, 4096, 30});  // 1 set, 4 ways
  for (Addr p = 0; p < 4; ++p) tlb.access(p * 4096, p);
  tlb.access(0, 10);  // page 0 most recent
  tlb.access(4 * 4096, 11);  // evicts LRU = page 1
  EXPECT_EQ(tlb.access(0, 12), 0u);
  EXPECT_EQ(tlb.access(1 * 4096, 13), 30u);  // page 1 was evicted
}

TEST(TlbTest, Reach) {
  Tlb tlb({128, 4, 4096, 30});
  // 128 entries x 4KB pages = 512KB reach: all hit on second pass.
  for (Addr p = 0; p < 128; ++p) tlb.access(p * 4096, p);
  for (Addr p = 0; p < 128; ++p) EXPECT_EQ(tlb.access(p * 4096, 1000 + p), 0u);
}

// ---------------------------------------------------------------------------
// Functional units
// ---------------------------------------------------------------------------

TEST(FuncUnits, FourIntAlusPerCycle) {
  FuncUnitPool fu;
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 0), 0u);
  EXPECT_EQ(fu.try_issue(OpClass::kIntAlu, 0), 0u);  // 5th stalls
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 1), 0u);  // next cycle frees
}

TEST(FuncUnits, SingleFpMulIsStructuralHazard) {
  FuncUnitPool fu;
  EXPECT_GT(fu.try_issue(OpClass::kFpMul, 0), 0u);
  EXPECT_EQ(fu.try_issue(OpClass::kFpMul, 0), 0u);
}

TEST(FuncUnits, LatenciesMatchConfig) {
  FuPoolConfig cfg;
  FuncUnitPool fu(cfg);
  EXPECT_EQ(fu.try_issue(OpClass::kIntAlu, 10), 10 + cfg.int_alu.latency);
  EXPECT_EQ(fu.try_issue(OpClass::kIntMul, 10), 10 + cfg.int_mul.latency);
  EXPECT_EQ(fu.try_issue(OpClass::kFpAlu, 10), 10 + cfg.fp_alu.latency);
  EXPECT_EQ(fu.try_issue(OpClass::kFpMul, 10), 10 + cfg.fp_mul.latency);
}

TEST(FuncUnits, MemOpsUseIntAluSlots) {
  FuncUnitPool fu;
  EXPECT_GT(fu.try_issue(OpClass::kLoad, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kStore, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kBranch, 0), 0u);
  EXPECT_GT(fu.try_issue(OpClass::kIntAlu, 0), 0u);
  EXPECT_EQ(fu.try_issue(OpClass::kIntAlu, 0), 0u);
}

// ---------------------------------------------------------------------------
// Core, against stub memory and scripted sources
// ---------------------------------------------------------------------------

/// Perfect memory: everything is a 1-cycle hit, stores always accepted.
class PerfectMemory : public MemoryInterface {
 public:
  Cycle fetch(Cycle now, Addr) override { return now + 1; }
  Cycle load(Cycle now, Addr) override { return now + 1; }
  bool store(Cycle, Addr, u64) override {
    ++stores;
    return true;
  }
  void tick(Cycle) override { ++ticks; }
  /// What a next_event() override answers: nothing to do at tick().
  Cycle pending_tick_work(Cycle) const { return kNever; }
  u64 stores = 0;
  u64 ticks = 0;
};

/// Memory whose loads take a fixed latency.
class SlowLoadMemory : public PerfectMemory {
 public:
  explicit SlowLoadMemory(Cycle lat) : lat_(lat) {}
  Cycle load(Cycle now, Addr) override { return now + lat_; }

 private:
  Cycle lat_;
};

/// Memory that rejects the first `reject` stores.
class FullBufferMemory : public PerfectMemory {
 public:
  explicit FullBufferMemory(unsigned reject) : reject_(reject) {}
  bool store(Cycle now, Addr a, u64 v) override {
    if (reject_ > 0) {
      --reject_;
      return false;
    }
    return PerfectMemory::store(now, a, v);
  }

 private:
  unsigned reject_;
};

/// I-cache misses on every fifth fetch block; loads to every third line
/// miss for 90 cycles.
class MissyMemory : public PerfectMemory {
 public:
  Cycle fetch(Cycle now, Addr) override {
    return ++fetches_ % 5 == 0 ? now + 25 : now + 1;
  }
  Cycle load(Cycle now, Addr a) override {
    return (a / 64) % 3 == 0 ? now + 90 : now + 2;
  }

 private:
  u64 fetches_ = 0;
};

/// A two-entry store buffer whose tick() drains one entry every 16 cycles:
/// commit keeps retrying stores against it while tick work is pending.
class DrainingMemory : public PerfectMemory {
 public:
  bool store(Cycle now, Addr a, u64 v) override {
    if (held_ == 2) return false;
    ++held_;
    return PerfectMemory::store(now, a, v);
  }
  void tick(Cycle now) override {
    PerfectMemory::tick(now);
    if (held_ > 0 && now >= next_drain_) {
      --held_;
      next_drain_ = now + 16;
    }
  }
  Cycle pending_tick_work(Cycle now) const {
    return held_ > 0 ? std::max(now, next_drain_) : kNever;
  }

 private:
  unsigned held_ = 0;
  Cycle next_drain_ = 0;
};

/// `Memory` answering next_event(), so the core may skip idle cycles.
template <typename Memory>
class Skipping : public Memory {
 public:
  using Memory::Memory;
  Cycle next_event(Cycle now) const override {
    return Memory::pending_tick_work(now);
  }
};

/// Repeats a fixed list of uops forever, advancing PCs sequentially.
class ScriptSource : public UopSource {
 public:
  explicit ScriptSource(std::vector<MicroOp> script)
      : script_(std::move(script)) {}
  MicroOp next() override {
    MicroOp op = script_[i_ % script_.size()];
    op.pc = 0x400000 + 4 * i_;
    ++i_;
    return op;
  }
  const char* name() const override { return "script"; }

 private:
  std::vector<MicroOp> script_;
  u64 i_ = 0;
};

MicroOp alu() { return MicroOp{}; }
MicroOp load_at(Addr a) {
  MicroOp op;
  op.cls = OpClass::kLoad;
  op.mem_addr = a;
  return op;
}
MicroOp store_at(Addr a, u64 v = 1) {
  MicroOp op;
  op.cls = OpClass::kStore;
  op.mem_addr = a;
  op.store_value = v;
  return op;
}

TEST(Core, IndependentAluStreamApproaches4Wide) {
  ScriptSource src({alu()});
  PerfectMemory mem;
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(40000);
  // 4-wide machine, no deps, no branches: IPC should approach the width.
  EXPECT_GT(s.ipc(), 3.5);
}

TEST(Core, SerialDependenceChainIsIpc1) {
  MicroOp dep = alu();
  dep.dep1 = 1;  // each op depends on its predecessor
  ScriptSource src({dep});
  PerfectMemory mem;
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(20000);
  EXPECT_LT(s.ipc(), 1.15);
  EXPECT_GT(s.ipc(), 0.85);
}

TEST(Core, FpMulStructuralHazardLimitsIpc) {
  MicroOp m;
  m.cls = OpClass::kFpMul;
  ScriptSource src({m});
  PerfectMemory mem;
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(20000);
  // Only one FP multiplier: at most ~1 per cycle despite 4-wide.
  EXPECT_LT(s.ipc(), 1.1);
}

TEST(Core, CommitCountsOpClasses) {
  ScriptSource src({alu(), load_at(0x1000), store_at(0x2000), alu()});
  PerfectMemory mem;
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(4000);
  EXPECT_EQ(s.committed, 4000u);
  EXPECT_NEAR(static_cast<double>(s.loads), 1000.0, 3.0);
  EXPECT_NEAR(static_cast<double>(s.stores), 1000.0, 3.0);
  EXPECT_EQ(s.loads_stores(), s.loads + s.stores);
  EXPECT_EQ(mem.stores, s.stores);
}

TEST(Core, SlowLoadsThrottleDependentChain) {
  // A pointer-chase: each load depends on the previous use, which depends
  // on the load — a serial chain that out-of-order execution cannot hide.
  MicroOp ld = load_at(0x1000);
  ld.dep1 = 1;
  MicroOp use = alu();
  use.dep1 = 1;  // consumes the load
  ScriptSource fast_src({ld, use});
  ScriptSource slow_src({ld, use});
  PerfectMemory fast_mem;
  SlowLoadMemory slow_mem(20);
  OutOfOrderCore fast(CoreConfig{}, fast_src, fast_mem);
  OutOfOrderCore slow(CoreConfig{}, slow_src, slow_mem);
  const double fast_ipc = fast.run(8000).ipc();
  const double slow_ipc = slow.run(8000).ipc();
  EXPECT_GT(fast_ipc, slow_ipc * 3.0);
}

TEST(Core, StoreToLoadForwardingHidesLatency) {
  // Load from the address a just-executed store wrote: forwarded, so even
  // with slow memory the chain stays fast.
  MicroOp st = store_at(0x3000, 7);
  MicroOp ld = load_at(0x3000);
  ScriptSource src({st, ld});
  SlowLoadMemory mem(50);
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(8000);
  EXPECT_GT(s.ipc(), 1.5);  // without forwarding this would be ~2/50
}

TEST(Core, FullWriteBufferStallsCommitThenRecovers) {
  ScriptSource src({store_at(0x100)});
  FullBufferMemory mem(50);
  OutOfOrderCore core({}, src, mem);
  const CoreStats s = core.run(2000);
  EXPECT_EQ(s.committed, 2000u);
  EXPECT_GE(s.commit_stall_wb_full, 50u);
}

TEST(Core, MispredictedBranchesCostFetchBubbles) {
  // Branch outcomes alternate with period 2 but carry a *random* element via
  // distinct PCs mapping to shifting history — use genuinely random outcomes
  // so no predictor can learn them.
  class RandomBranchSource : public UopSource {
   public:
    MicroOp next() override {
      MicroOp op;
      op.pc = 0x400000 + 4 * (i_ % 1024);
      if (i_ % 4 == 3) {
        op.cls = OpClass::kBranch;
        op.branch_taken = (rng_.next() & 1) != 0;
        op.branch_target = 0x400000;
      }
      ++i_;
      return op;
    }
    const char* name() const override { return "random-branches"; }

   private:
    u64 i_ = 0;
    Xorshift64Star rng_{77};
  };

  RandomBranchSource random_src;
  ScriptSource no_branch_src({alu()});
  PerfectMemory m1, m2;
  OutOfOrderCore with_branches({}, random_src, m1);
  OutOfOrderCore without({}, no_branch_src, m2);
  const CoreStats sb = with_branches.run(20000);
  const CoreStats sn = without.run(20000);
  EXPECT_GT(sb.bp.mispredicts(), 1000u);
  EXPECT_GT(sb.fetch_stall_cycles, 1000u);
  EXPECT_LT(sb.ipc(), sn.ipc() * 0.7);
}

TEST(Core, ResetStatsKeepsPipelineRunning) {
  ScriptSource src({alu()});
  PerfectMemory mem;
  OutOfOrderCore core({}, src, mem);
  core.run(1000);
  core.reset_stats();
  EXPECT_EQ(core.stats().committed, 0u);
  const CoreStats s = core.run(1000);
  EXPECT_EQ(s.committed, 1000u);
}

TEST(Core, LsqLimitRespected) {
  // A stream of loads that all miss for a long time would fill the LSQ;
  // the core must keep functioning and commit everything.
  ScriptSource src({load_at(0x100), load_at(0x200), load_at(0x300)});
  SlowLoadMemory mem(100);
  CoreConfig cfg;
  cfg.lsq_entries = 8;
  OutOfOrderCore core(cfg, src, mem);
  const CoreStats s = core.run(3000);
  EXPECT_EQ(s.committed, 3000u);
}

// ---------------------------------------------------------------------------
// Idle-cycle skipping is invisible in the results
// ---------------------------------------------------------------------------

/// Runs `script` on a memory that keeps the default next_event() (ticked
/// every cycle) and on the same memory answering it; warm-up, stats reset
/// and measured run as System::run does them. Returns the tick counts.
template <typename Memory, typename... Args>
std::pair<u64, u64> expect_skip_matches_stepping(
    const std::vector<MicroOp>& script, const CoreConfig& cfg, Args... args) {
  ScriptSource stepped_src(script), skipping_src(script);
  Memory stepped_mem(args...);
  Skipping<Memory> skipping_mem(args...);
  OutOfOrderCore stepped(cfg, stepped_src, stepped_mem);
  OutOfOrderCore skipping(cfg, skipping_src, skipping_mem);
  for (OutOfOrderCore* core : {&stepped, &skipping}) {
    core->run(1'000);
    core->reset_stats();
    core->run(4'000);
  }
  EXPECT_EQ(stepped.stats(), skipping.stats());
  EXPECT_EQ(stepped.stats().cycles, skipping.stats().cycles);
  EXPECT_EQ(stepped.stats().fetch_stall_cycles,
            skipping.stats().fetch_stall_cycles);
  EXPECT_EQ(stepped.stats().commit_stall_wb_full,
            skipping.stats().commit_stall_wb_full);
  EXPECT_EQ(stepped.now(), skipping.now());
  EXPECT_EQ(stepped_mem.ticks, stepped.now());
  EXPECT_EQ(stepped_mem.stores, skipping_mem.stores);
  return {stepped_mem.ticks, skipping_mem.ticks};
}

TEST(Core, IdleSkipMatchesCycleStepping) {
  MicroOp chase = load_at(0x1000);
  chase.dep1 = 1;
  MicroOp use = alu();
  use.dep1 = 1;
  MicroOp taken = alu();
  taken.cls = OpClass::kBranch;  // sequential PCs: every taken branch
  taken.branch_taken = true;     // misses the BTB and mispredicts
  taken.branch_target = 0x400000;
  MicroOp fmul;
  fmul.cls = OpClass::kFpMul;
  fmul.dep2 = 3;
  MicroOp both = alu();
  both.dep1 = 2;
  both.dep2 = 5;
  const std::vector<MicroOp> mixed = {
      chase, use, store_at(0x40C0, 3), load_at(0x40C0), taken,
      fmul,  both, load_at(0x2000),    store_at(0x2040), alu()};

  CoreConfig small_lsq;
  small_lsq.lsq_entries = 4;
  for (const CoreConfig& cfg : {CoreConfig{}, small_lsq}) {
    const auto [slow_stepped, slow_skipping] =
        expect_skip_matches_stepping<SlowLoadMemory>({chase, use}, cfg, 100);
    EXPECT_LT(slow_skipping * 4, slow_stepped);  // a pointer chase is idle
    const auto [missy_stepped, missy_skipping] =
        expect_skip_matches_stepping<MissyMemory>(mixed, cfg);
    EXPECT_LT(missy_skipping, missy_stepped);
    expect_skip_matches_stepping<PerfectMemory>(mixed, cfg);
    // Rejected stores are retried, and counted, every cycle.
    expect_skip_matches_stepping<FullBufferMemory>({store_at(0x100), chase},
                                                   cfg, 50u);
    expect_skip_matches_stepping<DrainingMemory>(mixed, cfg);
    // A store stream outruns the draining buffer: some store always waits
    // at the head, so the core never has an idle cycle to skip.
    const auto [drain_stepped, drain_skipping] =
        expect_skip_matches_stepping<DrainingMemory>(
            {store_at(0x100), store_at(0x200), alu()}, cfg);
    EXPECT_EQ(drain_skipping, drain_stepped);
  }
}

}  // namespace
}  // namespace aeep::cpu
