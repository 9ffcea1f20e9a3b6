#include "protect/cleaning_logic.hpp"

#include <cassert>

#include "common/bitops.hpp"

namespace aeep::protect {

CleaningLogic::CleaningLogic(u64 num_sets, Cycle interval)
    : num_sets_(num_sets), interval_(interval) {
  assert(num_sets > 0);
  set_period_ = interval_ ? (interval_ + num_sets_ - 1) / num_sets_ : 0;
  if (interval_ && set_period_ == 0) set_period_ = 1;
  next_due_ = set_period_;
}

std::optional<u64> CleaningLogic::due(Cycle now) {
  if (now < next_due()) return std::nullopt;
  const u64 set = next_set_;
  if (++next_set_ == num_sets_) next_set_ = 0;
  next_due_ += set_period_;
  return set;
}

unsigned CleaningLogic::latch_bits() const {
  return is_pow2(num_sets_) ? log2_exact(num_sets_) : 64;
}

void CleaningLogic::reset() {
  next_set_ = 0;
  next_due_ = set_period_;
}

}  // namespace aeep::protect
