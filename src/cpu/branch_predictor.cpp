#include "cpu/branch_predictor.hpp"

#include "common/bitops.hpp"

namespace aeep::cpu {

namespace {
constexpr u64 kHistoryMask = (u64{1} << BranchPredictor::kHistoryBits) - 1;
static_assert(is_pow2(BranchPredictor::kBtbEntries));
}  // namespace

BranchPredictor::BranchPredictor()
    : pht_(std::size_t{1} << kHistoryBits, 1),  // weakly not-taken
      btb_(kBtbEntries) {}

unsigned BranchPredictor::pht_index(Addr pc) const {
  return static_cast<unsigned>(((pc >> 2) ^ history_) & kHistoryMask);
}

unsigned BranchPredictor::btb_index(Addr pc) const {
  return static_cast<unsigned>((pc >> 2) & (kBtbEntries - 1));
}

BranchPredictor::Prediction BranchPredictor::predict(Addr pc) const {
  Prediction p;
  p.taken = pht_[pht_index(pc)] >= 2;
  const BtbEntry& e = btb_[btb_index(pc)];
  p.btb_hit = e.tag == pc;
  p.target = p.btb_hit ? e.target : 0;
  return p;
}

bool BranchPredictor::update(Addr pc, bool taken, Addr target) {
  ++stats_.lookups;
  const Prediction p = predict(pc);

  // Train the 2-bit counter.
  u8& ctr = pht_[pht_index(pc)];
  if (taken && ctr < 3) ++ctr;
  if (!taken && ctr > 0) --ctr;

  // Shift global history.
  history_ = ((history_ << 1) | (taken ? 1u : 0u)) & kHistoryMask;

  // Train the BTB on taken branches.
  if (taken) {
    BtbEntry& e = btb_[btb_index(pc)];
    e.tag = pc;
    e.target = target;
  }

  if (p.taken != taken) {
    ++stats_.dir_mispredicts;
    return false;
  }
  if (taken && (!p.btb_hit || p.target != target)) {
    ++stats_.target_mispredicts;
    return false;
  }
  return true;
}

}  // namespace aeep::cpu
