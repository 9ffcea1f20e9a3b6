// SECDED: extended Hamming code — Single Error Correction, Double Error
// Detection — over a data granule of 8..4096 bits. The default granule is
// the paper's: 8 check bits per 64-bit data word, SECDED(72,64), exactly
// the overhead the paper attributes to Itanium/POWER4 L2 ECC (12.5%).
// Wider granules need fewer check bits per data bit (512 data bits need
// 11: 10 Hamming + 1 parity, 2.1%) but correct only one error per granule
// — the trade-off bench/ablation_granularity measures.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "ecc/codec.hpp"

namespace aeep::ecc {

/// What SecdedCodec::correct_line did to a line.
struct LineRepair {
  unsigned words_corrected = 0;
  unsigned words_detected = 0;  ///< detected but not corrected
  u64 corrected_mask = 0;       ///< bit w set iff word w was repaired
};

/// Extended Hamming implementation for k data bits and r Hamming bits
/// (the smallest r with 2^r >= k + r + 1):
///  - codeword positions 1..k+r hold a Hamming code: check bits at the
///    power-of-two positions {1,2,4,...,2^(r-1)}, data bits fill the rest
///    in order;
///  - an overall parity bit (check bit r) covers all k+r positions,
///    upgrading single-error correction to SECDED.
///
/// Check-bit word layout: bits 0..r-1 are the Hamming check bits (for
/// positions 1,2,4,...), bit r is overall parity. At 64 bits, r = 7.
class SecdedCodec final : public WordCodec {
 public:
  /// `data_bits` in [8, 4096]. The WordCodec word API and the batched
  /// whole-line API are defined at the default width of 64 only.
  explicit SecdedCodec(unsigned data_bits = 64);

  unsigned check_bits() const override { return hamming_bits_ + 1; }
  unsigned data_bits() const { return data_bits_; }

  // --- Word API (width 64) ----------------------------------------------
  u64 encode(u64 data) const override;
  DecodeResult decode(u64 data, u64 check) const override;

  // --- Span API (every width) --------------------------------------------
  // Data is packed LSB-first across ceil(data_bits / 64) words; bits beyond
  // data_bits() are ignored.

  u64 encode(std::span<const u64> data) const;

  /// Validates (data, check) and repairs a single-bit error in place, in
  /// the data or in `check`. The result carries the status and, for
  /// kCorrectedSingle, corrected_bit (data bits 0..data_bits-1, check bits
  /// from data_bits); its data/check fields are left zero.
  DecodeResult decode(std::span<u64> data, u64& check) const;

  // --- Batched whole-line API (width 64) ---------------------------------
  // Table-driven position fold — eight L1-hot byte lookups per word
  // replace nine software popcounts (the build targets baseline x86-64, so
  // std::popcount is a ~12-op SWAR sequence), and there is no virtual
  // dispatch inside the line loop.
  void encode_batch(std::span<const u64> data,
                    std::span<u64> check_out) const override;
  void encode_batch_masked(std::span<const u64> data, u64 word_mask,
                           std::span<u64> check_out) const override;
  u64 mismatch_mask(std::span<const u64> data,
                    std::span<const u64> check) const override;

  /// Validates a stored line and repairs in place what SECDED can: the
  /// batched mismatch scan clears clean words, and only the words it flags
  /// are syndrome-decoded. A corrected word gets its data and check word
  /// repaired; a detected-uncorrectable word is left as stored.
  LineRepair correct_line(std::span<u64> data, std::span<u64> check) const;

 private:
  /// Hamming check bits + overall parity of one word via byte_fold_.
  u64 fold_word(u64 d) const;

  unsigned data_bits_;
  unsigned hamming_bits_;
  unsigned words_;  ///< data words per granule: ceil(data_bits / 64)
  // column_mask_[i * words_ + k]: the data bits of word k covered by
  // Hamming check bit i (those whose codeword position has bit i set).
  // Row r = hamming_bits_ covers every data bit, for the overall parity.
  std::vector<u64> column_mask_;
  // Width 64 only. byte_fold_[k][v]: the Hamming check bits (bits 0..6) of
  // a word whose only nonzero byte is byte k = v, with the parity of v in
  // bit 7. The code is linear, so XORing the eight entries of a word yields
  // its Hamming check bits and data parity in one accumulator; 2 KiB total,
  // L1-resident.
  std::array<std::array<u8, 256>, 8> byte_fold_{};
};

}  // namespace aeep::ecc
