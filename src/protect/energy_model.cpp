#include "protect/energy_model.hpp"

#include "protect/area_model.hpp"

namespace aeep::protect {

namespace {

// Codec logic, per 64-bit word.
constexpr double kParityCheckPj = 0.8;   ///< XOR tree over 65 bits
constexpr double kSecdedDecodePj = 4.5;  ///< syndrome + correct over 72 bits
constexpr double kSecdedEncodePj = 4.0;

// Check-bit storage access, per line, scaled by array size.
constexpr double kEccArrayReadPjPerKb = 0.09;  ///< ~11.5 pJ for a 128KB array
constexpr double kEccArrayWritePjPerKb = 0.11;
constexpr double kParityArrayReadPjPerKb = 0.09;
constexpr double kParityArrayWritePjPerKb = 0.11;

// Off-chip traffic, per 64-byte line moved.
constexpr double kBusLinePj = 1800.0;
constexpr double kDramAccessPj = 9000.0;

double kb_of_bits(u64 bits) { return static_cast<double>(bits) / 8.0 / 1024.0; }

}  // namespace

EnergyBreakdown estimate_energy(SchemeKind scheme, const EnergyEvents& ev,
                                const cache::CacheGeometry& geom,
                                unsigned ecc_entries_per_set) {
  EnergyBreakdown out;
  out.scheme = to_string(scheme);
  const double words = static_cast<double>(geom.words_per_line());
  const double reads = static_cast<double>(ev.l2_reads);
  const double writes = static_cast<double>(ev.l2_writes);
  const double fills = static_cast<double>(ev.l2_fills);
  const double clean_frac =
      static_cast<double>(ev.clean_read_fraction_permille) / 1000.0;

  // Check-bit array sizes drive per-access energy.
  const double conv_ecc_kb = kb_of_bits(geom.total_lines() * ecc_bits_per_line(geom));
  const double shared_ecc_kb =
      kb_of_bits(geom.num_sets() * ecc_entries_per_set * ecc_bits_per_line(geom));
  const double parity_kb = kb_of_bits(geom.total_lines() * parity_bits_per_line(geom));

  switch (scheme) {
    case SchemeKind::kUniformEcc:
      // Every read decodes SECDED for the whole line; every write/fill
      // re-encodes; every access touches the big per-way ECC array.
      out.codec_pj = reads * words * kSecdedDecodePj +
                     (writes + fills) * words * kSecdedEncodePj;
      out.check_storage_pj =
          reads * conv_ecc_kb * kEccArrayReadPjPerKb +
          (writes + fills) * conv_ecc_kb * kEccArrayWritePjPerKb;
      out.extra_traffic_pj = 0.0;  // definitionally the baseline
      break;

    case SchemeKind::kNonUniform:
    case SchemeKind::kSharedEccArray: {
      const double ecc_kb =
          scheme == SchemeKind::kSharedEccArray ? shared_ecc_kb : conv_ecc_kb;
      const double dirty_reads = reads * (1.0 - clean_frac);
      const double clean_reads = reads * clean_frac;
      // Clean reads: parity check only. Dirty reads: SECDED decode.
      out.codec_pj = clean_reads * words * kParityCheckPj +
                     dirty_reads * words * kSecdedDecodePj +
                     writes * words * (kSecdedEncodePj + kParityCheckPj) +
                     fills * words * kParityCheckPj;  // parity encode
      out.check_storage_pj =
          clean_reads * parity_kb * kParityArrayReadPjPerKb +
          dirty_reads * ecc_kb * kEccArrayReadPjPerKb +
          writes * (ecc_kb * kEccArrayWritePjPerKb +
                    parity_kb * kParityArrayWritePjPerKb) +
          fills * parity_kb * kParityArrayWritePjPerKb;
      // Cleaning and ECC-entry evictions add bus + DRAM work beyond org.
      const double extra_wb =
          ev.writebacks > ev.baseline_writebacks
              ? static_cast<double>(ev.writebacks - ev.baseline_writebacks)
              : 0.0;
      out.extra_traffic_pj = extra_wb * (kBusLinePj + kDramAccessPj);
      break;
    }
  }
  return out;
}

}  // namespace aeep::protect
