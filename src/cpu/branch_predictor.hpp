// Two-level adaptive branch predictor with a branch target buffer
// (Table 1: "2-level, 2K BTB").
//
// Direction: a 12-bit global history register indexes (xored with the PC,
// gshare style) a 4K-entry pattern history table of 2-bit saturating
// counters. Target: a direct-mapped 2048-entry BTB. A branch is predicted
// correctly when the direction matches and, for taken branches, the BTB
// supplies the right target. The dimensions are Table 1's, so they are
// constants.
#pragma once

#include <vector>

#include "common/fields.hpp"
#include "common/types.hpp"

namespace aeep::cpu {

struct BranchPredictorStats {
  u64 lookups = 0;
  u64 dir_mispredicts = 0;
  u64 target_mispredicts = 0;  ///< direction right (taken) but target wrong
  u64 mispredicts() const { return dir_mispredicts + target_mispredicts; }
  double mispredict_rate() const {
    return lookups ? static_cast<double>(mispredicts()) / static_cast<double>(lookups) : 0.0;
  }

  bool operator==(const BranchPredictorStats&) const = default;
};

void visit_fields(SameOrConst<BranchPredictorStats> auto& s, auto&& visit) {
  visit("lookups", s.lookups);
  visit("dir_mispredicts", s.dir_mispredicts);
  visit("target_mispredicts", s.target_mispredicts);
}

class BranchPredictor {
 public:
  /// Global history length, and so the PHT index width.
  static constexpr unsigned kHistoryBits = 12;
  /// Direct-mapped BTB entries; a power of two.
  static constexpr unsigned kBtbEntries = 2048;

  BranchPredictor();

  struct Prediction {
    bool taken = false;
    Addr target = 0;
    bool btb_hit = false;
  };

  /// Predict direction and target for the branch at `pc`.
  Prediction predict(Addr pc) const;

  /// Train with the ground truth and count the mispredict. Returns true if
  /// the prediction was correct (fetch continues seamlessly).
  bool update(Addr pc, bool taken, Addr target);

  const BranchPredictorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  unsigned pht_index(Addr pc) const;
  unsigned btb_index(Addr pc) const;

  u64 history_ = 0;
  std::vector<u8> pht_;  ///< 2-bit counters, weakly-not-taken initial
  struct BtbEntry {
    Addr tag = kNoAddr;
    Addr target = 0;
  };
  std::vector<BtbEntry> btb_;
  BranchPredictorStats stats_;
};

}  // namespace aeep::cpu
