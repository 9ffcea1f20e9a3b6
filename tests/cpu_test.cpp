// Tests for the CPU substrate: branch predictor learning, BTB, TLB,
// functional-unit structural hazards, and the out-of-order core's pipeline
// behaviour against a scripted micro-op source and a stub memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
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

TEST(TlbTest, CountsPagesOfTheConfiguredSize) {
  for (const unsigned page : {4096u, 8192u}) {
    Tlb tlb({64, 4, page, 30});
    EXPECT_EQ(tlb.access(0, 0), 30u) << page;
    EXPECT_EQ(tlb.access(page - 8, 1), 0u) << page;  // same page
    EXPECT_EQ(tlb.access(page, 2), 30u) << page;     // the next one
    EXPECT_EQ(tlb.access(2 * page - 1, 3), 0u) << page;
    // 64 entries reach 64 pages: pages 2..63 miss once, then all hit.
    for (Addr p = 0; p < 64; ++p) tlb.access(p * page, 10 + p);
    for (Addr p = 0; p < 64; ++p)
      EXPECT_EQ(tlb.access(p * page + page / 2, 100 + p), 0u) << page;
    EXPECT_EQ(tlb.stats().accesses, 132u) << page;
    EXPECT_EQ(tlb.stats().misses, 64u) << page;
  }
}

TEST(TlbTest, RejectsGeometriesItCannotIndexByShift) {
  EXPECT_THROW(Tlb({64, 4, 3000, 30}), std::invalid_argument);  // page
  EXPECT_THROW(Tlb({48, 4, 4096, 30}), std::invalid_argument);  // 12 sets
  EXPECT_THROW(Tlb({64, 0, 4096, 30}), std::invalid_argument);
  EXPECT_THROW(Tlb({64, 3, 4096, 30}), std::invalid_argument);
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

TEST(FuncUnits, LatenciesMatchTable1) {
  FuncUnitPool fu;
  EXPECT_EQ(fu.try_issue(OpClass::kIntAlu, 10), 11u);
  EXPECT_EQ(fu.try_issue(OpClass::kIntMul, 10), 13u);
  EXPECT_EQ(fu.try_issue(OpClass::kFpAlu, 10), 12u);
  EXPECT_EQ(fu.try_issue(OpClass::kFpMul, 10), 14u);
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

/// `Memory` counting the loads that reach it; a forwarded load does not.
template <typename Memory>
class Counted : public Memory {
 public:
  using Memory::Memory;
  Cycle load(Cycle now, Addr a) override {
    ++loads;
    return Memory::load(now, a);
  }
  u64 loads = 0;
};

/// Loads complete in the cycle they issue, so a consumer woken by one can
/// issue in that same cycle.
class InstantLoadMemory : public PerfectMemory {
 public:
  Cycle load(Cycle now, Addr) override { return now; }
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

/// How a scripted run ends: the measured stats, the loads that reached
/// memory over the whole run, and the ticks each memory received.
struct ScriptedRun {
  CoreStats stats;
  u64 memory_loads = 0;
  u64 stepped_ticks = 0;
  u64 skipping_ticks = 0;
};

/// Runs `script` on a memory that keeps the default next_event() (ticked
/// every cycle) and on the same memory answering it; warm-up, stats reset
/// and measured run as System::run does them. Both must end alike.
template <typename Memory, typename... Args>
ScriptedRun expect_skip_matches_stepping(const std::vector<MicroOp>& script,
                                         const CoreConfig& cfg,
                                         Args... args) {
  ScriptSource stepped_src(script), skipping_src(script);
  Counted<Memory> stepped_mem(args...);
  Skipping<Counted<Memory>> skipping_mem(args...);
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
  EXPECT_EQ(stepped_mem.loads, skipping_mem.loads);
  return {stepped.stats(), stepped_mem.loads, stepped_mem.ticks,
          skipping_mem.ticks};
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
    const ScriptedRun slow =
        expect_skip_matches_stepping<SlowLoadMemory>({chase, use}, cfg, 100);
    EXPECT_LT(slow.skipping_ticks * 4, slow.stepped_ticks);  // chase is idle
    const ScriptedRun missy =
        expect_skip_matches_stepping<MissyMemory>(mixed, cfg);
    EXPECT_LT(missy.skipping_ticks, missy.stepped_ticks);
    expect_skip_matches_stepping<PerfectMemory>(mixed, cfg);
    // Rejected stores are retried, and counted, every cycle.
    expect_skip_matches_stepping<FullBufferMemory>({store_at(0x100), chase},
                                                   cfg, 50u);
    expect_skip_matches_stepping<DrainingMemory>(mixed, cfg);
    // A store stream outruns the draining buffer: some store always waits
    // at the head, so the core never has an idle cycle to skip.
    const ScriptedRun drain = expect_skip_matches_stepping<DrainingMemory>(
        {store_at(0x100), store_at(0x200), alu()}, cfg);
    EXPECT_EQ(drain.skipping_ticks, drain.stepped_ticks);
  }
}

// ---------------------------------------------------------------------------
// Golden CoreStats of scripted streams
// ---------------------------------------------------------------------------

/// A scripted run's stats and the loads that reached memory.
struct GoldenRow {
  std::string label;
  u64 cycles, committed, loads, stores, branches, commit_stall_wb_full,
      fetch_stall_cycles, mispredicts, memory_loads;
  bool operator==(const GoldenRow&) const = default;
};

/// `copies` blocks of `block(i)`, each followed by `pad` ALU ops, so that
/// block i's ops meet only each other in the window.
template <typename Block>
std::vector<MicroOp> padded_blocks(unsigned copies, unsigned pad,
                                   Block block) {
  std::vector<MicroOp> script;
  for (unsigned i = 0; i < copies; ++i) {
    for (const MicroOp& op : block(i)) script.push_back(op);
    script.insert(script.end(), pad, alu());
  }
  return script;
}

std::vector<GoldenRow> actual_golden_rows() {
  MicroOp chase = load_at(0x1000);
  chase.dep1 = 1;
  MicroOp use = alu();
  use.dep1 = 1;
  auto after = [](MicroOp op, u8 dist) {
    op.dep1 = dist;
    return op;
  };
  MicroOp fmul;
  fmul.cls = OpClass::kFpMul;
  MicroOp fadd;
  fadd.cls = OpClass::kFpAlu;

  // Loads to the words of stores that wait at commit for the write buffer.
  const std::vector<MicroOp> held = {
      store_at(0x100, 5), load_at(0x100), use, store_at(0x140, 6),
      load_at(0x148),     load_at(0x140), alu()};
  // A store to the load's word commits while the load waits ~60 cycles on
  // its address: the load must not forward.
  const std::vector<MicroOp> committed_before_issue =
      padded_blocks(4, 100, [&](unsigned i) {
        return std::vector<MicroOp>{store_at(0x400 + 8 * i),
                                    load_at(0x20000 + 64 * i),
                                    after(load_at(0x400 + 8 * i), 1), use};
      });
  // Only a younger store writes the load's word: no forwarding.
  const std::vector<MicroOp> younger_store =
      padded_blocks(4, 100, [&](unsigned i) {
        return std::vector<MicroOp>{load_at(0x30000 + 64 * i),
                                    after(load_at(0x800 + 8 * i), 1),
                                    store_at(0x800 + 8 * i), use};
      });
  // One dependence chain through loads that complete in their issue cycle:
  // each wakes its consumer in time to issue beside it.
  const std::vector<MicroOp> same_cycle = {after(load_at(0x200), 2), use,
                                           after(load_at(0x208), 1), use,
                                           alu()};
  // Three FP multiplies and five ALU ops wait on one slow load and arrive
  // together: one multiplier and four issue slots leave losers behind.
  const std::vector<MicroOp> losers = {
      load_at(0x50000), after(fmul, 1),   after(fmul, 2),   after(fmul, 3),
      after(fadd, 4),   after(alu(), 5),  after(alu(), 6),  after(alu(), 7),
      after(alu(), 8),  after(alu(), 9),  store_at(0x50000), chase,
      use};
  // The same with a taken branch, which mispredicts (sequential PCs never
  // hit the BTB) and blocks fetch until the cycle after it issues.
  MicroOp taken;
  taken.cls = OpClass::kBranch;
  taken.branch_taken = true;
  taken.branch_target = 0x400000;
  std::vector<MicroOp> losers_branch = losers;
  losers_branch.push_back(taken);

  CoreConfig small_lsq;
  small_lsq.lsq_entries = 4;
  std::vector<GoldenRow> rows;
  for (const CoreConfig& cfg : {CoreConfig{}, small_lsq}) {
    const std::string lsq = cfg.lsq_entries == 4 ? "lsq4/" : "lsq32/";
    auto add = [&](const std::string& label, const ScriptedRun& run) {
      const CoreStats& s = run.stats;
      rows.push_back({lsq + label, s.cycles, s.committed, s.loads, s.stores,
                      s.branches, s.commit_stall_wb_full,
                      s.fetch_stall_cycles, s.bp.mispredicts(),
                      run.memory_loads});
    };
    add("held/full-buffer",
        expect_skip_matches_stepping<FullBufferMemory>(held, cfg, 300u));
    add("held/draining",
        expect_skip_matches_stepping<DrainingMemory>(held, cfg));
    add("committed-before-issue",
        expect_skip_matches_stepping<SlowLoadMemory>(committed_before_issue,
                                                     cfg, 60));
    add("younger-store", expect_skip_matches_stepping<SlowLoadMemory>(
                             younger_store, cfg, 60));
    add("same-cycle-wakeup",
        expect_skip_matches_stepping<InstantLoadMemory>(same_cycle, cfg));
    add("fu-losers",
        expect_skip_matches_stepping<SlowLoadMemory>(losers, cfg, 40));
    add("fu-losers/missy",
        expect_skip_matches_stepping<MissyMemory>(losers, cfg));
    add("fu-losers/branch",
        expect_skip_matches_stepping<MissyMemory>(losers_branch, cfg));
  }
  return rows;
}

std::string golden_source_form(const std::vector<GoldenRow>& rows) {
  std::ostringstream os;
  for (const GoldenRow& r : rows) {
    os << "    {\"" << r.label << "\", " << r.cycles << ", " << r.committed
       << ", " << r.loads << ", " << r.stores << ", " << r.branches << ", "
       << r.commit_stall_wb_full << ", " << r.fetch_stall_cycles << ", "
       << r.mispredicts << ", " << r.memory_loads << "},\n";
  }
  return os.str();
}

// Generated by the core that scanned the window for a forwarding store at
// each load's issue and visited every ready op, arrived or not.
const std::vector<GoldenRow> kGoldenCoreStats = {
    {"lsq32/held/full-buffer", 1000, 4000, 1714, 1143, 0, 0, 0, 0, 720},
    {"lsq32/held/draining", 18288, 4000, 1714, 1143, 0, 17717, 0, 0, 720},
    {"lsq32/committed-before-issue", 5095, 4000, 78, 39, 0, 0, 0, 0, 98},
    {"lsq32/younger-store", 5056, 4000, 78, 39, 0, 0, 0, 0, 98},
    {"lsq32/same-cycle-wakeup", 1600, 4000, 1600, 0, 0, 0, 0, 0, 2001},
    {"lsq32/fu-losers", 2573, 4003, 615, 308, 0, 0, 0, 0, 390},
    {"lsq32/fu-losers/missy", 3403, 4003, 615, 308, 0, 0, 2400, 0, 456},
    {"lsq32/fu-losers/branch", 6425, 4001, 372, 324, 323, 0, 5211, 324, 467},
    {"lsq4/held/full-buffer", 1715, 4000, 1714, 1143, 0, 0, 0, 0, 1430},
    {"lsq4/held/draining", 18288, 4000, 1714, 1143, 0, 17717, 0, 0, 717},
    {"lsq4/committed-before-issue", 5095, 4000, 78, 39, 0, 0, 0, 0, 98},
    {"lsq4/younger-store", 5056, 4000, 78, 39, 0, 0, 0, 0, 98},
    {"lsq4/same-cycle-wakeup", 1600, 4000, 1600, 0, 0, 0, 0, 0, 2001},
    {"lsq4/fu-losers", 6928, 4003, 615, 308, 0, 0, 0, 0, 386},
    {"lsq4/fu-losers/missy", 3403, 4003, 615, 308, 0, 0, 2400, 0, 455},
    {"lsq4/fu-losers/branch", 6425, 4001, 372, 324, 323, 0, 5211, 324, 467},
};

TEST(Core, ScriptedStreamsMatchTheGoldenStats) {
  const std::vector<GoldenRow> actual = actual_golden_rows();
  EXPECT_EQ(actual, kGoldenCoreStats)
      << "The whole actual table:\n"
      << golden_source_form(actual);
}

}  // namespace
}  // namespace aeep::cpu
