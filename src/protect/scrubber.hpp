// Background memory scrubber — the classic complement to the paper's
// scheme. Latent single-bit errors in rarely-read lines accumulate until a
// second strike turns them into DUEs (dirty lines) or SDCs (clean lines,
// same word). A scrub pass runs the protection scheme's read-validation
// path on every valid line, so singles are corrected (or clean lines
// refetched) before they can pair. Passes run on demand; the caller sets
// the cadence.
#pragma once

#include "protect/protected_l2.hpp"

namespace aeep::protect {

struct ScrubberStats {
  u64 lines_scrubbed = 0;
  u64 words_corrected = 0;   ///< latent singles repaired by SECDED
  u64 lines_refetched = 0;   ///< clean lines repaired from memory
  u64 uncorrectable = 0;     ///< latent damage already beyond repair
};

class Scrubber {
 public:
  /// Requires the L2 to maintain real check bits.
  explicit Scrubber(ProtectedL2& l2);

  /// Scrub every valid line now.
  void scrub_all();

  const ScrubberStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void scrub_set(u64 set);

  ProtectedL2* l2_;
  ScrubberStats stats_;
};

}  // namespace aeep::protect
