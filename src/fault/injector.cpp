#include "fault/injector.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"

namespace aeep::fault {

const char* to_string(FaultTarget t) {
  switch (t) {
    case FaultTarget::kData: return "data";
    case FaultTarget::kParity: return "parity";
    case FaultTarget::kEcc: return "ecc";
  }
  return "?";
}

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kRecovered: return "recovered";
    case FaultClass::kDetectedUnrecoverable: return "DUE";
    case FaultClass::kSilentCorruption: return "SDC";
    case FaultClass::kMiscorrected: return "miscorrected";
  }
  return "?";
}

u64 line_bits(FaultTarget target, const cache::CacheGeometry& geometry) {
  const u64 words = geometry.words_per_line();
  switch (target) {
    case FaultTarget::kData: return words * 64;
    case FaultTarget::kParity: return words;
    case FaultTarget::kEcc: return words * 8;
  }
  return 0;
}

LineBit draw_line_bit(const protect::L2Config& cfg, Xorshift64Star& rng) {
  const u64 data_bits = line_bits(FaultTarget::kData, cfg.geometry);
  const u64 parity_bits = cfg.scheme == protect::SchemeKind::kUniformEcc
                              ? 0
                              : line_bits(FaultTarget::kParity, cfg.geometry);
  const u64 index = rng.next_below(data_bits + parity_bits +
                                   line_bits(FaultTarget::kEcc, cfg.geometry));
  if (index < data_bits) return {FaultTarget::kData, index};
  if (index < data_bits + parity_bits)
    return {FaultTarget::kParity, index - data_bits};
  return {FaultTarget::kEcc, index - data_bits - parity_bits};
}

StoredBit locate_stored_bit(protect::ProtectedL2& l2, u64 set, unsigned way,
                            LineBit b) {
  cache::Cache& cache = l2.cache_model();
  if (!cache.meta(set, way).valid) return {};
  switch (b.target) {
    case FaultTarget::kData:
      return {&cache.data(set, way)[b.bit / 64],
              static_cast<unsigned>(b.bit % 64)};
    case FaultTarget::kParity: {
      auto par = l2.scheme().parity_words(set, way);
      if (par.empty()) return {};
      return {&par[b.bit], 0};
    }
    case FaultTarget::kEcc: {
      auto eccw = l2.scheme().ecc_words(set, way);
      if (eccw.empty()) return {};  // no live ECC (clean line / no entry)
      return {&eccw[b.bit / 8], static_cast<unsigned>(b.bit % 8)};
    }
  }
  return {};
}

bool flip_stored_bit(protect::ProtectedL2& l2, u64 set, unsigned way,
                     LineBit b) {
  const StoredBit sb = locate_stored_bit(l2, set, way, b);
  if (sb.word == nullptr) return false;
  *sb.word = flip_bit(*sb.word, sb.pos);
  return true;
}

void CampaignTally::add(const InjectionResult& r) {
  ++injections;
  ++by_class[static_cast<unsigned>(r.cls)];
  if (r.line_was_dirty) ++dirty_line_hits;
}

FaultCampaign::FaultCampaign(protect::ProtectedL2& l2, u64 seed)
    : l2_(&l2), rng_(seed) {}

std::optional<FaultCampaign::Site> FaultCampaign::pick_line(
    std::optional<bool> need_dirty) {
  const auto& geom = l2_->config().geometry;
  const cache::Cache& c = l2_->cache_model();
  // Rejection-sample a valid line; bail out if the cache looks empty of
  // qualifying lines after a generous number of tries.
  for (unsigned tries = 0; tries < 4096; ++tries) {
    const u64 set = rng_.next_below(geom.num_sets());
    const unsigned way = static_cast<unsigned>(rng_.next_below(geom.ways));
    const cache::CacheLineMeta& m = c.meta(set, way);
    if (!m.valid) continue;
    if (need_dirty && m.dirty != *need_dirty) continue;
    return Site{set, way};
  }
  return std::nullopt;
}

std::optional<InjectionResult> FaultCampaign::inject(FaultTarget target,
                                                     unsigned flips) {
  assert(flips >= 1);
  // ECC bits exist only for lines that currently carry ECC. Under the
  // proposed scheme that means dirty lines; under uniform ECC any line.
  std::optional<bool> need_dirty;
  if (target == FaultTarget::kEcc &&
      l2_->config().scheme != protect::SchemeKind::kUniformEcc)
    need_dirty = true;
  if (target == FaultTarget::kParity &&
      l2_->config().scheme == protect::SchemeKind::kUniformEcc)
    return std::nullopt;  // baseline has no parity bits

  const auto site = pick_line(need_dirty);
  if (!site) return std::nullopt;
  const auto [set, way] = *site;

  cache::Cache& c = l2_->cache_model();
  protect::ProtectionScheme& scheme = l2_->scheme();

  InjectionResult r;
  r.target = target;
  r.flips = flips;
  r.line_was_dirty = c.meta(set, way).dirty;

  // Golden copy before corruption.
  const auto payload = c.data(set, way);
  std::vector<u64> golden(payload.begin(), payload.end());

  const unsigned words = static_cast<unsigned>(payload.size());
  u64 space = 0;
  switch (target) {
    case FaultTarget::kData: space = static_cast<u64>(words) * 64; break;
    case FaultTarget::kParity: space = scheme.parity_words(set, way).size(); break;
    case FaultTarget::kEcc: space = scheme.ecc_words(set, way).size() * 8; break;
  }
  if (space == 0 || flips > space) return std::nullopt;

  // Choose `flips` distinct bit indices.
  std::vector<u64> sites;
  while (sites.size() < flips) {
    const u64 b = rng_.next_below(space);
    if (std::find(sites.begin(), sites.end(), b) == sites.end())
      sites.push_back(b);
  }
  for (u64 b : sites) flip_stored_bit(*l2_, set, way, {target, b});

  // Drive the hardware's read-check path.
  r.outcome = scheme.check_read(set, way, l2_->memory()).outcome;

  const bool matches = std::equal(golden.begin(), golden.end(), payload.begin());
  switch (r.outcome) {
    case protect::ReadOutcome::kOk:
      r.cls = matches ? FaultClass::kRecovered : FaultClass::kSilentCorruption;
      break;
    case protect::ReadOutcome::kCorrected:
    case protect::ReadOutcome::kRefetched:
      r.cls = matches ? FaultClass::kRecovered : FaultClass::kMiscorrected;
      break;
    case protect::ReadOutcome::kUncorrectable:
      r.cls = FaultClass::kDetectedUnrecoverable;
      break;
  }
  tally_.add(r);

  // Make injections independent: restore the pristine payload and re-encode
  // its codes, so residual corruption (SDC, DUE) from this strike cannot
  // contaminate the classification of later strikes.
  std::copy(golden.begin(), golden.end(), payload.begin());
  if (l2_->config().maintain_codes) {
    if (r.line_was_dirty) {
      scheme.on_write_applied(set, way, ~u64{0});
    } else {
      scheme.on_fill(set, way);
    }
  }
  return r;
}

std::optional<InjectionResult> FaultCampaign::inject_anywhere(unsigned flips) {
  // Weight targets by live storage: data bits vs parity bits vs ECC bits of
  // a typical line. A particle does not know which array it hits.
  return inject(draw_line_bit(l2_->config(), rng_).target, flips);
}

}  // namespace aeep::fault
