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
//   issue   — up to 4 ready ops (deps complete, FU free) begin execution,
//             oldest first; loads access the hierarchy, with store-to-load
//             forwarding from older LSQ stores to the word;
//   dispatch— up to 4 fetched ops rename into the RUU/LSQ; branches predict
//             here and a mispredict blocks fetch until resolution;
//   fetch   — up to 4 ops enter the fetch queue, paying I-cache latency at
//             every new fetch block.
//
// Wakeup: at dispatch an op links itself onto the consumer chain of each
// producer still waiting to issue (sim-outorder's dependency chains); a
// producer that issues walks its chain, and a consumer whose last producer
// issued joins the ready set with the cycle its operands arrive. Issue scans
// only that set, oldest first from the RUU head, so issue order and FU
// arbitration are those of a full window scan.
//
// Idle cycles: run() asks whether any stage can act at the current cycle —
// a completed head (a store retried against a full write buffer counts), a
// ready op (even one that lost FU arbitration), a dispatchable fetch-queue
// op, or an unblocked fetch with queue room. If none can, it jumps to the
// earliest of the next completion, operand arrival, fetch_ready_ and
// MemoryInterface::next_event(), adding the skipped cycles (and the fetch
// stall cycles among them) to the stats arithmetically. A skipped cycle is
// one in which stepping would have changed nothing else, so results are
// bit-identical to stepping every cycle; a memory that keeps the default
// next_event() is ticked every cycle. step() always advances one cycle.
#pragma once

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

  /// Run until `max_commits` micro-ops have committed, skipping idle
  /// cycles; returns final stats.
  CoreStats run(u64 max_commits);

  Cycle now() const { return now_; }
  const CoreStats& stats() const { return stats_; }
  /// Zero statistics (not pipeline state) — used after warm-up.
  void reset_stats();

 private:
  /// Wakeup-chain link: RUU index << 1 | producer slot (0: dep1, 1: dep2).
  static constexpr u32 kNoLink = ~u32{0};

  struct RuuEntry {
    MicroOp op;
    bool issued = false;
    bool mispredicted = false;
    Cycle complete_cycle = 0;
    /// Cycle the operands of the producers that already issued arrive.
    Cycle ready_cycle = 0;
    /// Producers that have not issued yet; the op is in the ready set
    /// once this is zero.
    u8 waiting = 0;
    /// Head of this op's consumer chain, and this op's link in the chain
    /// of each of its producers.
    u32 first_consumer = kNoLink;
    u32 next_consumer[2] = {kNoLink, kNoLink};
  };

  /// The fetch queue: a FIFO over a fixed ring of `fetch_queue` slots.
  struct FetchQueue {
    std::vector<MicroOp> slots;
    unsigned head = 0;
    unsigned size = 0;

    bool full() const { return size == slots.size(); }
    const MicroOp& front() const { return slots[head]; }
    void push(const MicroOp& op);
    void pop();
  };

  unsigned commit_stage();
  void issue_stage();
  void dispatch_stage();
  void fetch_stage();

  /// now_ if some stage can act this cycle; otherwise the earliest cycle
  /// one can (kNever if none is scheduled).
  Cycle next_active_cycle() const;
  /// Jump now_ over cycles in which neither the core nor memory acts.
  void skip_idle_cycles();

  /// RUU index `n` slots after `i` (n <= ruu_entries).
  unsigned index_after(unsigned i, unsigned n) const {
    const unsigned j = i + n;
    return j >= config_.ruu_entries ? j - config_.ruu_entries : j;
  }
  /// Ready set: bit i marks RUU entry i as waiting on no producer.
  void set_ready(unsigned i) { ready_[i / 64] |= u64{1} << (i % 64); }
  void clear_ready(unsigned i) { ready_[i / 64] &= ~(u64{1} << (i % 64)); }
  /// First ready entry in [from, end), or `end`.
  unsigned find_ready(unsigned from, unsigned end) const;
  /// A producer issued: hand its completion cycle down its consumer chain.
  void wake_consumers(RuuEntry& producer);
  /// Older store to the same 8-byte word still in the window?
  bool forwarding_store(unsigned load_index) const;

  CoreConfig config_;
  UopSource* source_;
  MemoryInterface* mem_;
  BranchPredictor bp_;
  FuncUnitPool fu_;

  std::vector<RuuEntry> ruu_;  ///< ring buffer
  std::vector<u64> ready_;     ///< ready-set bitmap over RUU indices
  unsigned head_ = 0;
  unsigned count_ = 0;
  unsigned lsq_count_ = 0;

  FetchQueue fetchq_;
  /// Waiting on a mispredicted branch. Nothing is fetched behind it until
  /// it issues, so it is the one unissued mispredicted op in the window.
  bool fetch_blocked_ = false;
  Cycle fetch_ready_ = 0;        ///< I-cache miss in progress until here
  Addr cur_fetch_block_ = kNoAddr;

  Cycle now_ = 0;
  CoreStats stats_;

  static constexpr unsigned kFetchBlockBytes = 32;  ///< L1I line size
};

}  // namespace aeep::cpu
