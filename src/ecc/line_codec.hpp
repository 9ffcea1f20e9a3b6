// Applies a word codec across an entire cache line.
//
// A 64-byte line is eight 64-bit words; each word carries its own check
// bits (8b for SECDED, 1b for parity), matching how the paper counts area:
// 64B line -> 64 ECC bits or 8 parity bits.
//
// The API is scratch-buffer encode/decode over std::span: zero heap
// allocations, callers bring their own buffers and reuse them.
#pragma once

#include <span>

#include "ecc/codec.hpp"

namespace aeep::ecc {

/// What validating a full line concluded: worst per-word status + counts.
struct LineDecodeSummary {
  DecodeStatus worst = DecodeStatus::kOk;
  unsigned words_ok = 0;
  unsigned words_corrected = 0;
  unsigned words_detected = 0;   ///< detected but not corrected

  bool operator==(const LineDecodeSummary&) const = default;
};

class LineCodec {
 public:
  /// `line_bytes` must be a positive multiple of 8.
  LineCodec(const WordCodec& word_codec, unsigned line_bytes);

  unsigned words_per_line() const { return words_; }
  unsigned check_bits_per_line() const { return words_ * codec_->check_bits(); }
  const WordCodec& word_codec() const { return *codec_; }

  /// Compute check words for `data` into caller-owned `check_out`. Both
  /// spans must hold words_per_line() words. Routed through the codec's
  /// batched (SWAR) implementation; bit-identical to per-word encode().
  void encode(std::span<const u64> data, std::span<u64> check_out) const;

  /// Recompute check words only for the words set in `dirty_mask` (bit w =
  /// word w); the other check_out entries are left untouched. This is the
  /// silent-write-elision entry point: the write buffer's dirty mask says
  /// which words actually changed, so clean words keep their (still valid)
  /// stored codes and cost nothing.
  void encode_dirty(std::span<const u64> data, u64 dirty_mask,
                    std::span<u64> check_out) const;

  /// Validate a stored line, writing the corrected payload into
  /// caller-owned `data_out` (may alias `data` for in-place repair). All
  /// spans must hold words_per_line() words. Fast path: a batched
  /// mismatch scan clears clean lines without ever entering the scalar
  /// syndrome decoder; only flagged words take the slow path.
  LineDecodeSummary decode(std::span<const u64> data,
                           std::span<const u64> check,
                           std::span<u64> data_out) const;

 private:
  const WordCodec* codec_;
  unsigned words_;
};

/// Severity order for aggregating statuses (Ok < Corrected < Detected*).
DecodeStatus worse(DecodeStatus a, DecodeStatus b);

}  // namespace aeep::ecc
