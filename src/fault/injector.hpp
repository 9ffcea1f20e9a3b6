// Soft-error injection and outcome classification.
//
// Models the paper's threat (particle-induced bit flips in the L2 arrays) by
// flipping stored bits — in the data payload, the parity bits, or the ECC
// bits — of a protected L2, then driving the scheme's read-validation path
// and comparing the resulting payload against a golden copy. This is the
// executable form of the paper's protection claims: clean lines survive via
// parity + re-fetch, dirty lines via SECDED correction, and the experiment
// quantifies where each scheme loses data (SDC) or has to give up (DUE).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/enum_string.hpp"
#include "common/rng.hpp"
#include "protect/protected_l2.hpp"

namespace aeep::fault {

/// Where the flipped bit(s) lived.
enum class FaultTarget { kData = 0, kParity = 1, kEcc = 2 };
inline constexpr unsigned kNumFaultTargets = 3;

/// Ground-truth classification of one injection.
enum class FaultClass {
  kRecovered,       ///< payload matches golden after the check
  kDetectedUnrecoverable,  ///< scheme raised an uncorrectable error (DUE)
  kSilentCorruption,       ///< payload differs but no error was raised (SDC)
  kMiscorrected,           ///< scheme "corrected" into the wrong data
};
inline constexpr unsigned kNumFaultClasses = 4;

const char* to_string(FaultTarget t);
/// Inverse of to_string; std::invalid_argument on an unknown spelling.
inline FaultTarget fault_target_from_string(const std::string& s) {
  return enum_from_string<FaultTarget>(s, "fault target");
}
const char* to_string(FaultClass c);

/// Bits one line holds in `target`'s array: data 64 per word, parity one
/// per word, ECC 8 per word.
u64 line_bits(FaultTarget target, const cache::CacheGeometry& geometry);

/// One bit of a line's stored arrays; `bit` < line_bits(target).
struct LineBit {
  FaultTarget target = FaultTarget::kData;
  u64 bit = 0;
};

/// Draw one bit uniformly (one `rng` draw) from the bits a line provisions
/// under `cfg`'s scheme: data, parity (none under uniform ECC) and ECC —
/// the storage a particle strike picks from.
LineBit draw_line_bit(const protect::L2Config& cfg, Xorshift64Star& rng);

/// Where a stored bit of (set, way) lives; `word` is null when its storage
/// holds no live contents (an invalid line, a scheme without parity, a line
/// without ECC).
struct StoredBit {
  u64* word = nullptr;
  unsigned pos = 0;
};
StoredBit locate_stored_bit(protect::ProtectedL2& l2, u64 set, unsigned way,
                            LineBit b);
/// Flip a stored bit; returns false, flipping nothing, on dead storage.
bool flip_stored_bit(protect::ProtectedL2& l2, u64 set, unsigned way,
                     LineBit b);

struct InjectionResult {
  FaultTarget target = FaultTarget::kData;
  unsigned flips = 1;
  bool line_was_dirty = false;
  protect::ReadOutcome outcome = protect::ReadOutcome::kOk;
  FaultClass cls = FaultClass::kRecovered;
};

struct CampaignTally {
  u64 injections = 0;
  std::array<u64, kNumFaultClasses> by_class{};
  u64 dirty_line_hits = 0;

  void add(const InjectionResult& r);
  u64 of(FaultClass c) const { return by_class[static_cast<unsigned>(c)]; }
  double rate(FaultClass c) const {
    return injections ? static_cast<double>(of(c)) / static_cast<double>(injections) : 0.0;
  }
};

class FaultCampaign {
 public:
  FaultCampaign(protect::ProtectedL2& l2, u64 seed);

  /// Flip `flips` distinct stored bits of one randomly chosen valid line
  /// (uniform over the chosen target's bits), then run the scheme's check.
  /// Returns nullopt if no line satisfies the constraints (e.g. asking for
  /// an ECC flip when nothing is dirty).
  std::optional<InjectionResult> inject(FaultTarget target, unsigned flips);

  /// Weighted random target by live storage bits, like real particle strikes.
  std::optional<InjectionResult> inject_anywhere(unsigned flips);

  const CampaignTally& tally() const { return tally_; }

 private:
  struct Site {
    u64 set;
    unsigned way;
  };
  /// Pick a random valid line; if `need` is set the line must (not) be dirty.
  std::optional<Site> pick_line(std::optional<bool> need_dirty);

  protect::ProtectedL2* l2_;
  Xorshift64Star rng_;
  CampaignTally tally_;
};

}  // namespace aeep::fault
