#include "fault/strike_process.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"

namespace aeep::fault {

namespace {

/// Storage bits the configuration provisions (the Poisson process does not
/// know which cells currently hold live contents): data, parity on every
/// line unless the scheme is uniform ECC, and an ECC entry per way under
/// uniform and non-uniform protection or k per set under the shared array.
u64 provisioned_storage_bits(const protect::L2Config& cfg) {
  const auto& g = cfg.geometry;
  const u64 entries_per_set =
      cfg.scheme == protect::SchemeKind::kSharedEccArray
          ? cfg.ecc_entries_per_set
          : g.ways;
  const u64 ecc = g.num_sets() * entries_per_set * g.words_per_line() * 8;
  const u64 parity = cfg.scheme == protect::SchemeKind::kUniformEcc
                         ? 0
                         : g.total_lines() * g.words_per_line();
  return g.total_lines() * g.line_bytes * 8 + parity + ecc;
}

}  // namespace

StrikeProcess::StrikeProcess(protect::ProtectedL2& l2,
                             const StrikeConfig& config)
    : l2_(&l2), config_(config), rng_(config.seed) {
  provisioned_bits_ = provisioned_storage_bits(l2.config());
  p_strike_ = std::min(
      1.0, config_.lambda_per_bit_cycle * config_.rate_scale *
               static_cast<double>(provisioned_bits_));
  never_ = !(p_strike_ > 0.0);
  if (!never_) schedule_next(0);
  next_reassert_ = config_.stuck_reassert_interval;
}

void StrikeProcess::schedule_next(Cycle now) {
  next_strike_ = now + rng_.next_geometric(p_strike_);
}

void StrikeProcess::apply_random_strike() {
  ++stats_.strikes;
  const protect::L2Config& cfg = l2_->config();
  const u64 set = rng_.next_below(cfg.geometry.num_sets());
  const auto way = static_cast<unsigned>(rng_.next_below(cfg.geometry.ways));
  const LineBit hit = draw_line_bit(cfg, rng_);
  const bool mbu = config_.double_bit_fraction > 0.0 &&
                   rng_.chance(config_.double_bit_fraction);

  if (!flip_stored_bit(*l2_, set, way, hit)) {
    ++stats_.absorbed;
    return;
  }
  ++stats_.bits_flipped;
  switch (hit.target) {
    case FaultTarget::kData: ++stats_.data_hits; break;
    case FaultTarget::kParity: ++stats_.parity_hits; break;
    case FaultTarget::kEcc: ++stats_.ecc_hits; break;
  }
  // Spatial MBU: the neighbouring bit of the same word flips too. Parity
  // keeps a single live bit per word, so there is no neighbour to hit.
  if (mbu && hit.target != FaultTarget::kParity) {
    if (flip_stored_bit(*l2_, set, way, {hit.target, hit.bit ^ 1}))
      ++stats_.bits_flipped;
  }
}

bool StrikeProcess::stuck_active(const StuckFault& f, Cycle now) const {
  if (now < f.start) return false;
  if (f.period == 0) return true;
  return ((now - f.start) / f.period) % 2 == 0;
}

bool StrikeProcess::apply_stuck(const StuckFault& f) {
  const StoredBit sb =
      locate_stored_bit(*l2_, f.set, f.way, {f.target, f.bit});
  if (sb.word == nullptr) return false;
  const bool current = ((*sb.word >> sb.pos) & 1) != 0;
  if (current == f.stuck_high) return false;  // already at the stuck value
  *sb.word = flip_bit(*sb.word, sb.pos);
  return true;
}

void StrikeProcess::reassert_line(u64 set, unsigned way) {
  for (const StuckFault& f : config_.stuck_faults) {
    if (f.set != set || f.way != way) continue;
    if (!stuck_active(f, last_tick_)) continue;
    if (apply_stuck(f)) ++stats_.stuck_reasserts;
  }
}

Cycle StrikeProcess::next_event() const {
  return std::min(next_strike(), next_reassert());
}

void StrikeProcess::tick(Cycle now) {
  last_tick_ = now;
  while (next_strike() <= now) {
    apply_random_strike();
    schedule_next(next_strike_);
  }
  if (next_reassert() <= now) {
    for (const StuckFault& f : config_.stuck_faults) {
      if (!stuck_active(f, now)) continue;
      if (apply_stuck(f)) ++stats_.stuck_reasserts;
    }
    next_reassert_ = now + config_.stuck_reassert_interval;
  }
}

}  // namespace aeep::fault
