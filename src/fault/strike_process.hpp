// Online soft-error strike process.
//
// Drives particle strikes into the live L2 arrays *during* a timed
// simulation (the FaultCampaign sibling injects into a quiesced cache
// post-hoc). Two fault populations:
//
//  - Transient strikes: Poisson arrivals at rate lambda * scale over the
//    provisioned storage bits (data + parity + ECC arrays). Each strike
//    picks a uniformly random provisioned bit; strikes landing in storage
//    with no live contents (an invalid line, an un-allocated ECC entry) are
//    absorbed, exactly like a real particle hitting a dead cell. A
//    configurable fraction of strikes are 2-bit spatial MBUs (adjacent bits
//    of one word) — the multi-bit upsets that defeat per-word SECDED.
//
//  - Persistent / intermittent stuck-at faults: fixed (set, way, bit) sites
//    that force their cell to a value. They re-assert on a cadence and —
//    via RecoveryController's reassert hook — immediately after every
//    recovery re-fetch, which is what makes a stuck cell exhaust the retry
//    budget and walk its way toward retirement. A nonzero duty period makes
//    the fault intermittent (asserted every other period).
//
// Raw 90nm-class rates (~1e-19 per bit-cycle) are invisible at simulation
// scale; `rate_scale` accelerates the process so a 10^5..10^6-cycle run
// sees a workload of strikes. All randomness is seeded: same seed, same
// workload, same strike sequence.
#pragma once

#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "protect/protected_l2.hpp"

namespace aeep::fault {

/// A persistent (or intermittent) stuck-at fault site.
struct StuckFault {
  FaultTarget target = FaultTarget::kData;
  u64 set = 0;
  unsigned way = 0;
  /// Bit index inside the line's target array, below line_bits(target).
  u64 bit = 0;
  bool stuck_high = true;  ///< value the cell is forced to
  Cycle start = 0;         ///< activation cycle
  /// 0 = permanent. Otherwise the fault is intermittent: asserted during
  /// every other `period`-cycle window after `start`.
  Cycle period = 0;

  bool operator==(const StuckFault&) const = default;
};

void visit_fields(SameOrConst<StuckFault> auto& f, auto&& visit) {
  visit("target", f.target);
  visit("set", f.set);
  visit("way", f.way);
  visit("bit", f.bit);
  visit("stuck_high", f.stuck_high);
  visit("start", f.start);
  visit("period", f.period);
}

struct StrikeConfig {
  bool enabled = false;
  /// Raw per-bit per-cycle strike rate (see fault::ReliabilityParams).
  double lambda_per_bit_cycle = 1e-19;
  /// Acceleration factor making strikes visible at simulation scale.
  double rate_scale = 1.0;
  /// Fraction of strikes that flip two adjacent bits of one word (MBU).
  double double_bit_fraction = 0.0;
  /// Cadence at which stuck-at faults re-assert themselves.
  Cycle stuck_reassert_interval = 64;
  u64 seed = 1;
  std::vector<StuckFault> stuck_faults;
};

struct StrikeStats {
  u64 strikes = 0;       ///< transient strike events applied
  u64 bits_flipped = 0;  ///< includes the second bit of MBUs
  u64 data_hits = 0;
  u64 parity_hits = 0;
  u64 ecc_hits = 0;
  u64 absorbed = 0;         ///< landed in dead storage; no live bit flipped
  u64 stuck_reasserts = 0;  ///< stuck-at applications that changed a bit

  bool operator==(const StrikeStats&) const = default;
};

void visit_fields(SameOrConst<StrikeStats> auto& s, auto&& visit) {
  visit("strikes", s.strikes);
  visit("bits_flipped", s.bits_flipped);
  visit("data_hits", s.data_hits);
  visit("parity_hits", s.parity_hits);
  visit("ecc_hits", s.ecc_hits);
  visit("absorbed", s.absorbed);
  visit("stuck_reasserts", s.stuck_reasserts);
}

class StrikeProcess {
 public:
  StrikeProcess(protect::ProtectedL2& l2, const StrikeConfig& config);

  /// Advance to `now`, applying every strike and stuck-at re-assertion due
  /// by then. Call once per cycle (cheap when nothing is due).
  void tick(Cycle now);

  /// Cycle of the next strike or stuck-at re-assertion (kNever if none).
  Cycle next_event() const;

  /// Re-assert any stuck-at faults on (set, way) right now — wired as the
  /// RecoveryController's post-re-fetch hook so persistent faults re-corrupt
  /// a freshly fetched line before its re-validation.
  void reassert_line(u64 set, unsigned way);

  /// Provisioned storage bits the Poisson process rains on.
  u64 provisioned_bits() const { return provisioned_bits_; }
  /// Effective per-cycle strike probability after scaling.
  double strike_probability() const { return p_strike_; }

  const StrikeConfig& config() const { return config_; }
  const StrikeStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// Cycle of the next random strike (kNever if the rate is zero).
  Cycle next_strike() const { return never_ ? kNever : next_strike_; }
  /// Cycle of the next stuck-at re-assertion (kNever without stuck faults).
  Cycle next_reassert() const {
    return config_.stuck_faults.empty() ? kNever : next_reassert_;
  }
  void schedule_next(Cycle now);
  void apply_random_strike();
  /// Force one stored bit; returns true if a live bit changed value.
  bool apply_stuck(const StuckFault& f);
  bool stuck_active(const StuckFault& f, Cycle now) const;

  protect::ProtectedL2* l2_;
  StrikeConfig config_;
  Xorshift64Star rng_;
  StrikeStats stats_;
  u64 provisioned_bits_ = 0;
  double p_strike_ = 0.0;
  Cycle next_strike_ = 0;
  Cycle next_reassert_ = 0;
  Cycle last_tick_ = 0;
  bool never_ = false;
};

}  // namespace aeep::fault
