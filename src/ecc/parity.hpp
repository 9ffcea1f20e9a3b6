// Parity check code: detects any odd number of bit errors, corrects nothing.
#pragma once

#include "ecc/codec.hpp"

namespace aeep::ecc {

/// One even parity bit per 64-bit word — the code the paper uses for clean
/// L2 lines, L1 caches, tags and status bits (as in Itanium).
class ParityCodec final : public WordCodec {
 public:
  unsigned check_bits() const override { return 1; }
  u64 encode(u64 data) const override;
  DecodeResult decode(u64 data, u64 check) const override;

  // Batched overrides: one POPCNT per word, no virtual dispatch.
  void encode_batch(std::span<const u64> data,
                    std::span<u64> check_out) const override;
  u64 mismatch_mask(std::span<const u64> data,
                    std::span<const u64> check) const override;
};

}  // namespace aeep::ecc
