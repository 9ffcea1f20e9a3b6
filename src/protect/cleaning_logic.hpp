// Dirty-line cleaning FSM (§3.2, Figure 2).
//
// Hardware: a cycle counter plus a latch holding the next set number. Every
// `interval / num_sets` cycles the logic inspects one set; across `interval`
// cycles every line in the cache is therefore checked once — the paper's
// definition of "cleaning interval" (64K..4M cycles). The inspection rule:
//   dirty && !written  -> eagerly write the line back (it has left its write
//                         generation), clear dirty;
//   written            -> reset written so the next pass re-tests it.
#pragma once

#include <optional>

#include "common/types.hpp"

namespace aeep::protect {

class CleaningLogic {
 public:
  /// `interval` is the per-line revisit period in cycles; 0 disables.
  CleaningLogic(u64 num_sets, Cycle interval);

  /// If an inspection is due at `now`, returns the set to inspect and
  /// schedules the next one. Call repeatedly until nullopt (a large time
  /// jump can make several sets due).
  std::optional<u64> due(Cycle now);

  /// Cycle of the next inspection (kNever when disabled).
  Cycle next_due() const { return enabled() ? next_due_ : kNever; }

  bool enabled() const { return interval_ != 0; }
  Cycle interval() const { return interval_; }
  Cycle set_period() const { return set_period_; }

  /// Storage cost of the FSM: the set-number latch (paper: 12 bits for 4K
  /// sets). The cycle counter is shared with existing performance counters.
  unsigned latch_bits() const;

  void reset();

 private:
  u64 num_sets_;
  Cycle interval_;
  Cycle set_period_;
  Cycle next_due_;
  u64 next_set_ = 0;
};

}  // namespace aeep::protect
