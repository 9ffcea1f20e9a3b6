// Out-of-order superscalar timing model (SimpleScalar sim-outorder style).
//
// Table-1 machine: 4-wide fetch/decode/issue/commit, 64-entry RUU (register
// update unit, a unified ROB/issue window), 16-entry fetch queue, 32-entry
// LSQ, the FU pool of func_units.hpp, a 2-level branch predictor with 2K
// BTB. The paper evaluates this one machine, so its dimensions are
// constants; only the LSQ size is configurable (the core's tests shrink
// it). Trace-driven: a UopSource supplies the committed path; wrong-path
// fetch is modelled as a fetch bubble from a mispredicted branch's rename
// until its resolution.
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
// issued joins the ready set with the cycle its operands arrive. The ready
// set is two bitmaps over RUU indices, beside a dense per-index array of
// arrival cycles: `arrived_` holds the ops whose operands are here, and
// `pending_` the ones still waiting for a result in flight. Pending ops
// move across only in a cycle in which the earliest of them arrives, and
// issue walks `arrived_` alone, oldest first from the RUU head, so issue
// order and FU arbitration are those of a full window scan while an op
// whose operands have not arrived is never visited. A consumer woken by a
// result due this very cycle (a load that completes as it issues) joins
// `arrived_` at once and issues in the same walk.
//
// Forwarding: stores are numbered in dispatch order, and a ring of
// `lsq_entries` slots holds the words of the stores in the window. At
// dispatch a load records the youngest older store to its word among them;
// at issue it forwards iff that store has not committed. Stores commit in
// order and dispatched ops are never squashed, so this is exactly "an older
// store to the word is still in the window".
//
// Idle cycles: run() asks whether any stage can act at the current cycle —
// a completed head (a store retried against a full write buffer counts), an
// arrived op (even one that lost FU arbitration), a dispatchable fetch-queue
// op, or an unblocked fetch with queue room. If none can, it jumps to the
// earliest of the next completion, the next pending arrival, fetch_ready_
// and MemoryInterface::next_event(), adding the skipped cycles (and the
// fetch stall cycles among them) to the stats arithmetically. A skipped
// cycle is one in which stepping would have changed nothing else, so
// results are bit-identical to stepping every cycle; a memory that keeps
// the default next_event() is ticked every cycle. step() always advances
// one cycle.
#pragma once

#include <array>
#include <vector>

#include "cpu/branch_predictor.hpp"
#include "cpu/func_units.hpp"
#include "cpu/memory_iface.hpp"
#include "cpu/uop.hpp"

namespace aeep::cpu {

struct CoreConfig {
  unsigned lsq_entries = 32;
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

void visit_fields(SameOrConst<CoreStats> auto& s, auto&& visit) {
  visit("cycles", s.cycles);
  visit("committed", s.committed);
  visit("loads", s.loads);
  visit("stores", s.stores);
  visit("branches", s.branches);
  visit("commit_stall_wb_full", s.commit_stall_wb_full);
  visit("fetch_stall_cycles", s.fetch_stall_cycles);
  visit("bp", s.bp);
}

class OutOfOrderCore {
 public:
  /// Ops fetched, dispatched, issued and committed per cycle.
  static constexpr unsigned kWidth = 4;
  static constexpr unsigned kRuuEntries = 64;
  static constexpr unsigned kFetchQueue = 16;

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

  /// What the stages read of an op after dispatch (48 bytes; the MicroOp
  /// stays in the fetch queue). Its operand-arrival cycle is `arrival_`.
  struct RuuEntry {
    Addr mem_addr = 0;
    u64 store_value = 0;
    Cycle complete_cycle = 0;
    /// Loads: the number of stores dispatched up to and including the
    /// youngest older store to the same word in the window at dispatch
    /// (0: none). The load forwards iff fewer stores have committed.
    u64 forward_until = 0;
    /// Head of this op's consumer chain, and this op's link in the chain
    /// of each of its producers.
    u32 first_consumer = kNoLink;
    u32 next_consumer[2] = {kNoLink, kNoLink};
    OpClass cls = OpClass::kIntAlu;
    bool issued = false;
    bool mispredicted = false;
    /// Producers that have not issued yet; the op is in the ready set
    /// once this is zero.
    u8 waiting = 0;
  };

  /// The fetch queue: a FIFO over a fixed ring of kFetchQueue slots.
  struct FetchQueue {
    std::array<MicroOp, kFetchQueue> slots{};
    unsigned head = 0;
    unsigned size = 0;

    bool full() const { return size == kFetchQueue; }
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

  /// One bit per RUU index.
  using RuuBits = std::array<u64, (kRuuEntries + 63) / 64>;

  /// RUU index `n` slots after `i` (n <= kRuuEntries).
  static unsigned index_after(unsigned i, unsigned n) {
    const unsigned j = i + n;
    return j >= kRuuEntries ? j - kRuuEntries : j;
  }
  static void set_bit(RuuBits& bits, unsigned i) {
    bits[i / 64] |= u64{1} << (i % 64);
  }
  static void clear_bit(RuuBits& bits, unsigned i) {
    bits[i / 64] &= ~(u64{1} << (i % 64));
  }
  /// First arrived entry in [from, end), or `end`.
  unsigned find_arrived(unsigned from, unsigned end) const;
  /// Entry `i` waits on no producer: it joins `arrived_` if its operands
  /// are here by cycle `by`, else `pending_`.
  void make_ready(unsigned i, Cycle by);
  /// Move the pending entries whose operands have arrived to `arrived_`.
  void admit_arrivals();
  /// A producer issued: hand its completion cycle down its consumer chain.
  void wake_consumers(RuuEntry& producer);
  /// `forward_until` for a load to `word` dispatched now.
  u64 youngest_store_to(Addr word) const;

  CoreConfig config_;
  UopSource* source_;
  MemoryInterface* mem_;
  BranchPredictor bp_;
  FuncUnitPool fu_;

  std::array<RuuEntry, kRuuEntries> ruu_{};  ///< ring buffer
  std::array<Cycle, kRuuEntries> arrival_{}; ///< operands arrive here
  RuuBits arrived_{};  ///< ready, operands here: issue candidates
  RuuBits pending_{};  ///< ready, operands still in flight
  Cycle next_arrival_ = kNever;  ///< earliest arrival_ in pending_
  unsigned head_ = 0;
  unsigned count_ = 0;
  unsigned lsq_count_ = 0;

  /// Word addresses of the stores in the window, oldest first, over a ring
  /// of `lsq_entries` slots (every store in the window holds an LSQ slot).
  std::vector<Addr> store_words_;
  unsigned store_tail_ = 0;  ///< ring slot of the next dispatched store
  u64 stores_dispatched_ = 0;
  u64 stores_committed_ = 0;

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
