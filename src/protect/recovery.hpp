// Online error-recovery controller.
//
// Sits between the ProtectedL2 controller and the protection scheme and
// turns every non-kOk ReadCheck observed on the live access path into a
// concrete recovery action with a cycle and bus cost:
//
//  - kCorrected   -> in-place SECDED correction plus a scrub write of the
//                    repaired words (small fixed latency);
//  - kRefetched   -> the clean line failed parity and was re-fetched; the
//                    controller charges the bus round trip and, because the
//                    underlying cell may be stuck, re-validates with bounded
//                    retries + linear backoff before giving up and dropping
//                    the line (next demand access re-fetches it);
//  - kUncorrectable (DUE) -> configurable policy: panic (latch a machine-
//                    check flag), drop-and-refetch (clean lines recover,
//                    dirty data is lost with the loss counted), or poison
//                    (keep the line, mark it, count every later read of it).
//
// Every handled error is appended to an MCA-style bounded error log (site,
// cycle, outcome, action, retries). A per-(set, way) fault map counts
// errors; past `retirement_threshold` the controller asks the L2 to retire
// the way from that set — allocation then skips it (graceful degradation),
// the repeat-offender cell stops generating errors, and the retired
// capacity is reported in stats.
#pragma once

#include <functional>
#include <vector>

#include "cache/cache.hpp"
#include "common/enum_string.hpp"
#include "common/fields.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/scheme.hpp"

namespace aeep::protect {

/// What to do with a detected-uncorrectable error (DUE).
enum class DuePolicy {
  kPanic,        ///< latch a machine-check flag (fail-stop marker), drop line
  kDropRefetch,  ///< drop the line; clean data re-fetches, dirty data is lost
  kPoison,       ///< keep the line, mark it poisoned, count propagations
};

const char* to_string(DuePolicy p);
/// Inverse of to_string; std::invalid_argument on an unknown spelling.
inline DuePolicy due_policy_from_string(const std::string& s) {
  return enum_from_string<DuePolicy>(s, "DUE policy");
}

/// The concrete action the controller took for one error (log vocabulary).
enum class RecoveryAction {
  kScrubCorrected,    ///< ECC corrected in place + scrub write
  kRefetched,         ///< parity fail on clean line; re-fetch succeeded
  kRetryExhausted,    ///< re-fetch kept failing (stuck cell); line dropped
  kDroppedRefetch,    ///< DUE policy kDropRefetch applied
  kPoisoned,          ///< DUE policy kPoison applied
  kPanicked,          ///< DUE policy kPanic latched the machine-check flag
  kWayRetired,        ///< fault-map history alone fused the way off
};

const char* to_string(RecoveryAction a);

struct RecoveryConfig {
  /// Validate codes on every L2 hit (the online path). Requires the L2 to
  /// maintain real check bits.
  bool check_on_access = false;
  DuePolicy due_policy = DuePolicy::kDropRefetch;
  /// Re-fetch attempts after the scheme's own re-fetch still fails
  /// (persistent faults); past this the line is dropped.
  unsigned max_refetch_retries = 3;
  /// Errors at one (set, way) before the way is retired; 0 disables
  /// retirement.
  unsigned retirement_threshold = 0;
  /// MCA-style log capacity. The log is a ring buffer: once full, each new
  /// error overwrites the oldest entry and bumps the dropped counter, so a
  /// long-lived process (the aeep_served job server) holds at most this
  /// many entries no matter how many errors it ever sees.
  std::size_t error_log_capacity = 64;
};

/// One MCA-style error-log record.
struct ErrorLogEntry {
  Cycle cycle = 0;
  u64 set = 0;
  unsigned way = 0;
  Addr addr = kNoAddr;
  bool was_dirty = false;
  ReadOutcome outcome = ReadOutcome::kOk;
  RecoveryAction action = RecoveryAction::kRefetched;
  unsigned retries = 0;
  bool triggered_retirement = false;

  bool operator==(const ErrorLogEntry&) const = default;
};

struct RecoveryStats {
  u64 checks = 0;           ///< lines validated on the access path
  u64 errors = 0;           ///< non-kOk validations
  u64 corrected = 0;        ///< SECDED corrections scrubbed in place
  u64 refetched = 0;        ///< parity-fail re-fetches that recovered
  u64 retries = 0;          ///< extra re-fetch attempts beyond the first
  u64 retry_exhausted = 0;  ///< lines dropped after retry budget ran out
  u64 due_events = 0;       ///< detected-uncorrectable errors handled
  u64 lines_dropped = 0;    ///< lines invalidated by recovery
  u64 dirty_lines_lost = 0; ///< dropped lines whose dirty data was lost
  u64 lines_poisoned = 0;   ///< lines marked poisoned (kPoison policy)
  u64 poison_reads = 0;     ///< later reads that consumed poisoned data
  u64 poisoned_writebacks = 0;  ///< poisoned data written to memory
  u64 panics = 0;           ///< machine-check latches (kPanic policy)
  u64 ways_retired = 0;     ///< (set, way) slots fused off
  Cycle stall_cycles = 0;   ///< total extra latency recovery added

  bool operator==(const RecoveryStats&) const = default;
};

void visit_fields(SameOrConst<RecoveryStats> auto& s, auto&& visit) {
  visit("checks", s.checks);
  visit("errors", s.errors);
  visit("corrected", s.corrected);
  visit("refetched", s.refetched);
  visit("retries", s.retries);
  visit("retry_exhausted", s.retry_exhausted);
  visit("due_events", s.due_events);
  visit("lines_dropped", s.lines_dropped);
  visit("dirty_lines_lost", s.dirty_lines_lost);
  visit("lines_poisoned", s.lines_poisoned);
  visit("poison_reads", s.poison_reads);
  visit("poisoned_writebacks", s.poisoned_writebacks);
  visit("panics", s.panics);
  visit("ways_retired", s.ways_retired);
  visit("stall_cycles", s.stall_cycles);
}

class RecoveryController {
 public:
  /// Extra cycles added per successive re-fetch retry (linear backoff).
  static constexpr Cycle kRetryBackoff = 16;
  /// Cycles to write corrected words back into the array (scrub write).
  static constexpr Cycle kCorrectionLatency = 2;

  /// What the caller (ProtectedL2) must do after one validation.
  struct Result {
    Cycle extra_latency = 0;  ///< add to the access's completion cycle
    bool line_dropped = false;  ///< the line was invalidated; re-fill it
    bool retire_way = false;    ///< fault map crossed the threshold
    bool data_intact = false;   ///< payload is trustworthy (may write back)
  };

  RecoveryController(const RecoveryConfig& config, cache::Cache& cache,
                     ProtectionScheme& scheme, mem::SplitTransactionBus& bus,
                     mem::MemoryStore& memory);

  /// Drive the scheme's read check for a resident line and execute the
  /// recovery action. Called by ProtectedL2 on every validated access.
  Result validate(Cycle now, u64 set, unsigned way);

  /// Validate a dirty line the controller is about to write back (cleaning,
  /// replacement or ECC eviction). Corrections are applied in place; a DUE
  /// under kPanic/kDropRefetch drops the line so corrupt data never reaches
  /// memory (returns false — skip the write-back); under kPoison the data
  /// is written anyway and the propagation counted. Faults recorded here
  /// count toward retirement, executed later via take_pending_retirement.
  bool validate_writeback(Cycle now, u64 set, unsigned way);

  /// Hook invoked after each re-fetch inside the retry loop, so persistent
  /// (stuck-at) faults can re-assert themselves before the re-check. Wired
  /// to fault::StrikeProcess by the simulation harness.
  void set_reassert_hook(std::function<void(u64 set, unsigned way)> hook) {
    reassert_ = std::move(hook);
  }

  /// The line at (set, way) was replaced/invalidated by normal cache
  /// operation: clear its poison marker.
  void on_install(u64 set, unsigned way);

  /// Pop one (set, way) whose fault history demands retirement. Sites that
  /// became ineligible while queued (already retired, last active way) are
  /// skipped. ProtectedL2 drains this once per tick, outside any access,
  /// so write-back-path faults retire ways too. Returns false when empty.
  bool take_pending_retirement(u64& set, unsigned& way);
  /// Something is queued for take_pending_retirement.
  bool retirement_pending() const { return !pending_retire_.empty(); }

  /// Bookkeeping for a retirement executed by ProtectedL2.
  void note_way_retired(Cycle now, u64 set, unsigned way);
  void note_dirty_line_lost() { ++stats_.dirty_lines_lost; }

  bool poisoned(u64 set, unsigned way) const {
    return poison_[slot(set, way)] != 0;
  }
  unsigned fault_count(u64 set, unsigned way) const {
    return fault_count_[slot(set, way)];
  }
  bool panicked() const { return panicked_; }

  const RecoveryConfig& config() const { return config_; }
  const RecoveryStats& stats() const { return stats_; }
  /// Chronological snapshot of the ring buffer: the newest (up to)
  /// `error_log_capacity` errors, oldest first.
  std::vector<ErrorLogEntry> error_log() const;
  /// Entries overwritten (oldest-first) after the ring filled — the MCA
  /// overflow count. error_log().size() + error_log_dropped() == errors seen.
  u64 error_log_dropped() const { return log_dropped_; }

  /// Zero the observable metrics (stats + log). The fault map, poison bits
  /// and the panic latch are machine state, not metrics, and survive.
  void reset_stats();

 private:
  std::size_t slot(u64 set, unsigned way) const {
    return static_cast<std::size_t>(set) * cache_->geometry().ways + way;
  }

  /// Invalidate the line, releasing the scheme's code state.
  void drop_line(u64 set, unsigned way);

  /// True when the site's fault history has crossed the retirement
  /// threshold and the set can still afford to lose the way.
  bool should_retire(u64 set, unsigned way) const;

  /// Record one error in the fault map; returns should_retire(set, way).
  bool record_fault(u64 set, unsigned way);

  void log_event(const ErrorLogEntry& e);

  RecoveryConfig config_;
  cache::Cache* cache_;
  ProtectionScheme* scheme_;
  mem::SplitTransactionBus* bus_;
  mem::MemoryStore* memory_;
  std::function<void(u64, unsigned)> reassert_;

  std::vector<u16> fault_count_;  ///< per-(set, way) error tally
  std::vector<u8> poison_;        ///< per-(set, way) poison markers
  std::vector<u8> pending_;       ///< per-(set, way) queued-for-retirement
  std::vector<std::pair<u64, unsigned>> pending_retire_;
  std::vector<ErrorLogEntry> log_;  ///< ring storage; log_head_ = oldest
  std::size_t log_head_ = 0;
  u64 log_dropped_ = 0;
  bool panicked_ = false;
  RecoveryStats stats_;
};

}  // namespace aeep::protect
