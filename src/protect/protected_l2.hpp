// L2 cache controller with pluggable error protection (the paper's system).
//
// Owns the L2 cache state, a protection scheme, and the cleaning FSM, and
// talks to the split-transaction bus / memory store for misses and
// write-backs. Timing model: the L2 is pipelined (one access may start per
// cycle), hits cost `hit_latency`, misses additionally pay the bus+DRAM
// round trip. Write-backs are posted to the bus. Dirty-line residency is
// integrated cycle-exactly — the paper's "percentage of dirty cache lines
// per cycle" (Figures 1, 3, 4, 7).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "cache/cache.hpp"
#include "common/enum_string.hpp"
#include "common/stats.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/cleaning_logic.hpp"
#include "protect/recovery.hpp"
#include "protect/scheme.hpp"

namespace aeep::protect {

enum class SchemeKind { kUniformEcc, kNonUniform, kSharedEccArray };

/// How the cleaning FSM decides which inspected dirty lines to write back.
enum class CleaningPolicy {
  /// §3.2: clean only dirty lines whose written bit is clear; a set written
  /// bit buys the line one more interval (and is reset for the next test).
  kWrittenBit,
  /// Ablation: clean every dirty line inspected, written bit ignored.
  kNaive,
  /// Cache-decay style (Kaxiras et al.): per-line saturating counter,
  /// reset by writes, aged by inspections; clean at `decay_threshold`.
  /// Not a generalisation of kWrittenBit: every write resets the counter,
  /// including the one that dirties the line, while the written bit is set
  /// only by a write to an already-dirty line. A line written once is
  /// cleaned at its first inspection under kWrittenBit and threshold 1, at
  /// its second under threshold 2; a line written twice, at its second
  /// under kWrittenBit and threshold 2, at its first under threshold 1.
  kDecayCounter,
  /// Eager write-back (Lee et al.): clean the LRU dirty line of the
  /// inspected set only when the off-chip bus is idle.
  kEagerIdle,
};

const char* to_string(CleaningPolicy p);
/// Inverse of to_string; std::invalid_argument on an unknown spelling.
inline CleaningPolicy cleaning_policy_from_string(const std::string& s) {
  return enum_from_string<CleaningPolicy>(s, "cleaning policy");
}

/// Why a line was written back (the three cases of §3.3 / Figure 8).
enum class WbCause : unsigned {
  kReplacement = 0,  ///< dirty victim of a miss ("WB")
  kCleaning = 1,     ///< dirty-line cleaning ("Clean-WB")
  kEccEviction = 2,  ///< ECC-entry eviction ("ECC-WB")
};
inline constexpr unsigned kNumWbCauses = 3;

struct L2Config {
  cache::CacheGeometry geometry = cache::kL2Geometry;
  Cycle hit_latency = 10;
  SchemeKind scheme = SchemeKind::kUniformEcc;
  unsigned ecc_entries_per_set = 1;   ///< for kSharedEccArray
  Cycle cleaning_interval = 0;        ///< per-line revisit period; 0 = off
  /// Which dirty lines an inspection writes back (see CleaningPolicy).
  CleaningPolicy cleaning_policy = CleaningPolicy::kWrittenBit;
  /// kDecayCounter: inspections a line must sit write-idle before cleaning.
  unsigned decay_threshold = 2;
  bool maintain_codes = true;         ///< encode/decode real check bits
  /// Online error-recovery behaviour (validation on access, DUE policy,
  /// retry budget, way retirement). Validation additionally requires
  /// maintain_codes. With check_on_access, recovery re-fills of dropped
  /// lines appear as extra L2 accesses in the cache stats.
  RecoveryConfig recovery{};
  cache::ReplacementPolicy replacement = cache::ReplacementPolicy::kLru;
  u64 seed = 1;
  /// When set, overrides `scheme`: the L2 installs whatever this builds.
  /// Used by the verification layer to run deliberately-broken scheme
  /// fixtures through the real controller.
  std::function<std::unique_ptr<ProtectionScheme>(cache::Cache&)>
      scheme_factory;
};

class ProtectedL2 {
 public:
  ProtectedL2(const L2Config& config, mem::SplitTransactionBus& bus,
              mem::MemoryStore& memory);

  /// Demand line read (L1 miss fill, instruction or data). Returns the
  /// cycle the line is available.
  Cycle read(Cycle now, Addr addr);

  /// Line write from the L1 write buffer: apply `words` under `word_mask`
  /// (write-allocate on miss). Returns completion cycle; the requester does
  /// not stall on it (posted), but the value sequences later drains.
  Cycle write(Cycle now, Addr addr, u64 word_mask,
              std::span<const u64> words);

  /// Give the cleaning FSM its chance to inspect sets; call once per cycle
  /// (cheap when nothing is due).
  void tick(Cycle now);

  /// Earliest cycle >= `now` at which tick() can change state: the next
  /// cleaning inspection, or `now` while a retirement is queued.
  Cycle next_event(Cycle now) const;

  /// Flush the dirty-residency integral at end of run.
  void finalize(Cycle now);

  /// Zero metrics (write-back counters, cache stats, dirty integral) while
  /// keeping cache/scheme state — used after warm-up.
  void reset_metrics(Cycle now);

  // --- Metrics -----------------------------------------------------------
  u64 wb_count(WbCause cause) const { return wb_[static_cast<unsigned>(cause)]; }
  u64 wb_total() const;
  /// Cycle-weighted average number of dirty lines.
  double avg_dirty_lines() const { return dirty_level_.average(); }
  double avg_dirty_fraction() const;
  u64 peak_dirty_lines() const { return peak_dirty_; }
  /// Lines cleaned by the FSM that were re-dirtied later (premature-clean
  /// proxy, for the ablation benches).
  u64 cleaning_inspections() const { return cleaning_inspections_; }
  /// Written words whose value did not change and whose check-bit re-encode
  /// was therefore skipped (silent-write elision; only counted when the
  /// elision is active, i.e. codes maintained and no on-access checking).
  u64 silent_words_elided() const { return silent_words_elided_; }

  cache::Cache& cache_model() { return cache_; }
  const cache::Cache& cache_model() const { return cache_; }
  RecoveryController& recovery() { return recovery_; }
  const RecoveryController& recovery() const { return recovery_; }
  /// Fraction of line slots fused off by way retirement.
  double retired_capacity_fraction() const;
  ProtectionScheme& scheme() { return *scheme_; }
  const L2Config& config() const { return config_; }
  mem::MemoryStore& memory() { return *memory_; }

  /// Observer called after every externally visible operation (read, write,
  /// or a tick that cleaned/retired something), once all state changes have
  /// settled. The verify::Auditor attaches here; the hook must not call
  /// back into the L2. Pass nullptr to detach.
  void set_audit_hook(std::function<void(Cycle)> hook) {
    audit_hook_ = std::move(hook);
  }

 private:
  /// Codes are validated on access and write-back, so faults are tallied
  /// and sites retired.
  bool validating() const {
    return config_.recovery.check_on_access && config_.maintain_codes;
  }

  struct Located {
    u64 set;
    unsigned way;
    Cycle ready;  ///< cycle the line is usable (fill completion on miss)
    bool was_hit;
  };

  /// Probe; on miss, evict + fill from memory. Returns the line location.
  /// `depth` guards the recovery re-fill recursion (a dropped or retired
  /// line restarts the access as a miss exactly once).
  Located locate_or_fill(Cycle now, Addr addr, bool is_write,
                         unsigned depth = 0);

  /// Fuse off (set, way): write back intact dirty data, invalidate, retire.
  void execute_retirement(Cycle now, u64 set, unsigned way, bool data_intact);

  /// Write a dirty line back (bus + memory store), make it clean, notify
  /// the scheme, and classify the traffic.
  void do_writeback(Cycle now, u64 set, unsigned way, WbCause cause);

  /// Record the dirty-line count for the residency integral. Cheap no-op
  /// when the count has not changed since the last note; `force` flushes
  /// the pending constant segment (end of run / metric reset).
  void note_dirty(Cycle now, bool force = false);

  L2Config config_;
  cache::Cache cache_;
  std::unique_ptr<ProtectionScheme> scheme_;
  CleaningLogic cleaner_;
  mem::SplitTransactionBus* bus_;
  mem::MemoryStore* memory_;
  RecoveryController recovery_;

  /// Inspect one set per the cleaning policy (factored out of tick()).
  void inspect_set(Cycle now, u64 set);

  Cycle port_free_ = 0;
  Cycle last_note_ = 0;
  u64 noted_dirty_ = 0;  ///< dirty count last recorded into dirty_level_
  TimeWeightedLevel dirty_level_;
  u64 wb_[kNumWbCauses] = {0, 0, 0};
  u64 peak_dirty_ = 0;
  u64 cleaning_inspections_ = 0;
  u64 silent_words_elided_ = 0;
  std::vector<u64> fill_buf_;
  std::vector<u8> decay_;  ///< per-line counters (kDecayCounter only)
  std::function<void(Cycle)> audit_hook_;
};

const char* to_string(WbCause c);
const char* to_string(SchemeKind k);
/// Inverse of to_string; std::invalid_argument on an unknown spelling.
inline SchemeKind scheme_from_string(const std::string& s) {
  return enum_from_string<SchemeKind>(s, "protection scheme");
}

}  // namespace aeep::protect
