// Out-of-order superscalar timing model (SimpleScalar sim-outorder style).
//
// Table-1 machine: 4-wide fetch/decode/issue/commit, 64-entry RUU (register
// update unit, a unified ROB/issue window), 32-entry LSQ, the FU pool of
// func_units.hpp, a 2-level branch predictor with 2K BTB. Trace-driven: a
// UopSource supplies the committed path; wrong-path fetch is modelled as a
// fetch bubble from a mispredicted branch's rename until its resolution.
//
// Pipeline model per cycle (reverse order so stages see last cycle's state):
//   commit  — up to 4 oldest completed ops retire; stores enter the
//             write-through path here and stall commit while the write
//             buffer is full;
//   issue   — up to 4 ready ops (deps complete, FU free, LSQ order for
//             loads) begin execution; loads access the hierarchy, with
//             store-to-load forwarding from older LSQ stores to the word;
//   dispatch— up to 4 fetched ops rename into the RUU/LSQ; branches predict
//             here and a mispredict blocks fetch until resolution;
//   fetch   — up to 4 ops enter the fetch queue, paying I-cache latency at
//             every new fetch block.
#pragma once

#include <deque>
#include <vector>

#include "cpu/branch_predictor.hpp"
#include "cpu/func_units.hpp"
#include "cpu/memory_iface.hpp"
#include "cpu/uop.hpp"

namespace aeep::cpu {

struct CoreConfig {
  unsigned width = 4;          ///< decode and issue rate (Table 1)
  unsigned ruu_entries = 64;
  unsigned lsq_entries = 32;
  unsigned fetch_queue = 16;
  FuPoolConfig fu{};
  BranchPredictorConfig bp{};
};

struct CoreStats {
  u64 cycles = 0;
  u64 committed = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 branches = 0;
  u64 commit_stall_wb_full = 0;  ///< commit slots lost to a full write buffer
  u64 fetch_stall_cycles = 0;    ///< cycles fetch was blocked on a mispredict
  BranchPredictorStats bp;

  double ipc() const {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles) : 0.0;
  }
  u64 loads_stores() const { return loads + stores; }

  bool operator==(const CoreStats&) const = default;
};

class OutOfOrderCore {
 public:
  OutOfOrderCore(const CoreConfig& config, UopSource& source,
                 MemoryInterface& memory);

  /// Advance one cycle (all four stages). Returns ops committed this cycle.
  unsigned step();

  /// Run until `max_commits` micro-ops have committed; returns final stats.
  CoreStats run(u64 max_commits);

  Cycle now() const { return now_; }
  const CoreStats& stats() const { return stats_; }
  /// Zero statistics (not pipeline state) — used after warm-up.
  void reset_stats();

 private:
  struct RuuEntry {
    MicroOp op;
    u64 seq = 0;
    bool issued = false;
    Cycle complete_cycle = 0;
    bool mispredicted = false;
  };

  unsigned commit_stage();
  void issue_stage();
  void dispatch_stage();
  void fetch_stage();

  bool deps_ready(const RuuEntry& e) const;
  bool dep_ready(u64 dep_seq) const;
  const RuuEntry* find_entry(u64 seq) const;
  /// Older store to the same 8-byte word still in the window?
  bool forwarding_store(const RuuEntry& load) const;

  CoreConfig config_;
  UopSource* source_;
  MemoryInterface* mem_;
  BranchPredictor bp_;
  FuncUnitPool fu_;

  std::vector<RuuEntry> ruu_;  ///< ring buffer
  unsigned head_ = 0;
  unsigned count_ = 0;
  unsigned lsq_count_ = 0;
  u64 next_seq_ = 0;  ///< seq of the next op to dispatch

  std::deque<MicroOp> fetchq_;
  bool fetch_blocked_ = false;   ///< waiting on a mispredicted branch
  u64 blocking_branch_seq_ = 0;
  Cycle fetch_ready_ = 0;        ///< I-cache miss in progress until here
  Addr cur_fetch_block_ = kNoAddr;

  Cycle now_ = 0;
  CoreStats stats_;

  static constexpr unsigned kFetchBlockBytes = 32;  ///< L1I line size
};

}  // namespace aeep::cpu
