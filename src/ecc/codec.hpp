// Word-level error-code interface.
//
// A WordCodec operates on 64-bit data words — the granularity the paper
// uses ("every 64 bits of data requires 8 bits for ECC" / "1 bit parity
// check code"). A codec computes `check_bits()` check bits for each word;
// `decode` recomputes them from possibly-corrupted data+check and reports
// what it can conclude. (SecdedCodec also offers other granule widths
// through its span API, for the granularity ablation.)
#pragma once

#include <cassert>
#include <span>

#include "common/types.hpp"

namespace aeep::ecc {

/// What a decoder concluded about a (data, check) pair.
enum class DecodeStatus {
  kOk,                 ///< no error indicated
  kCorrectedSingle,    ///< single-bit error found and corrected
  kDetectedDouble,     ///< double-bit error detected (uncorrectable)
  kDetectedError,      ///< error detected, no correction capability (parity)
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kOk;
  u64 data = 0;        ///< corrected data word (valid unless kDetected*)
  u64 check = 0;       ///< corrected check bits
  /// For kCorrectedSingle: which codeword bit was flipped. Data bits are
  /// reported as 0..63, check bits as 64..(64+check_bits-1).
  unsigned corrected_bit = 0;
};

/// Abstract per-word codec.
class WordCodec {
 public:
  virtual ~WordCodec() = default;

  /// Number of check bits per 64-bit data word.
  virtual unsigned check_bits() const = 0;

  /// Compute check bits for a data word.
  virtual u64 encode(u64 data) const = 0;

  /// Validate (and possibly correct) a stored word.
  virtual DecodeResult decode(u64 data, u64 check) const = 0;

  /// Mask selecting the live check bits (the low check_bits() bits).
  u64 check_mask() const {
    const unsigned b = check_bits();
    return b >= 64 ? ~u64{0} : (u64{1} << b) - 1;
  }

  // --- Batched hot path ---------------------------------------------------
  // Whole-line entry points. The codecs implement them with SWAR code that
  // hoists constants, drops the per-word virtual dispatch, and exposes
  // independent popcount/fold chains to the CPU. Batched and scalar
  // results are bit-identical by contract (equivalence-tested in ecc_test).

  /// check_out[w] = encode(data[w]) for every word.
  virtual void encode_batch(std::span<const u64> data,
                            std::span<u64> check_out) const = 0;

  /// Like encode_batch, but only for words with bit w set in `word_mask`;
  /// other check_out entries are left untouched (silent-write elision).
  /// The default loops the scalar encode.
  virtual void encode_batch_masked(std::span<const u64> data, u64 word_mask,
                                   std::span<u64> check_out) const {
    assert(data.size() <= 64 && check_out.size() >= data.size());
    for (std::size_t w = 0; w < data.size(); ++w)
      if (word_mask & (u64{1} << w)) check_out[w] = encode(data[w]);
  }

  /// Bit w set iff stored check[w] disagrees with re-encoding data[w] —
  /// i.e. exactly the words a decode would flag. The clean-line fast path:
  /// a zero mask means every word is kOk and the scalar decoder (syndrome
  /// walk, branches) can be skipped entirely.
  virtual u64 mismatch_mask(std::span<const u64> data,
                            std::span<const u64> check) const = 0;
};

}  // namespace aeep::ecc
