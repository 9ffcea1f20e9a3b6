// Protection energy model (the Li et al. [11] angle the paper cites:
// "parity codes are more energy-efficient than ECC").
//
// Event-based accounting: every L2 access pays for the check-bit storage it
// touches and the codec logic it runs; write-backs and refetches pay bus
// energy. The per-event energies are fixed, representative 90nm-class
// values (documented per constant in energy_model.cpp); they are
// assumptions, not claims, and nothing varies them. What the model exposes
// is the *structure* of the saving: under non-uniform protection a
// clean-line read runs a 1-bit parity check instead of a SECDED decode,
// and the smaller ECC array is cheaper to access than a per-way ECC array.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "protect/protected_l2.hpp"

namespace aeep::protect {

struct EnergyBreakdown {
  std::string scheme;
  double codec_pj = 0;        ///< parity/SECDED logic
  double check_storage_pj = 0;///< ECC / parity array accesses
  double extra_traffic_pj = 0;///< write-backs beyond the baseline's
  double total_pj() const { return codec_pj + check_storage_pj + extra_traffic_pj; }
};

/// Event counts extracted from a run (see sim::RunResult -> to_energy_events).
struct EnergyEvents {
  u64 l2_reads = 0;        ///< demand reads (hits+misses)
  u64 l2_writes = 0;       ///< write-buffer drains
  u64 l2_fills = 0;        ///< lines installed
  u64 clean_read_fraction_permille = 500;  ///< share of reads hitting clean lines
  u64 writebacks = 0;      ///< all write-backs of this configuration
  u64 baseline_writebacks = 0;  ///< write-backs of the org configuration
};

/// Estimate protection energy for a scheme processing `events` in an L2 of
/// `geom`.
EnergyBreakdown estimate_energy(SchemeKind scheme, const EnergyEvents& events,
                                const cache::CacheGeometry& geom,
                                unsigned ecc_entries_per_set);

}  // namespace aeep::protect
