// Bit-manipulation helpers used by the ECC codecs and cache indexing.
#pragma once

#include <bit>
#include <cassert>

#include "common/types.hpp"

namespace aeep {

/// True iff `x` is a power of two (and nonzero).
constexpr bool is_pow2(u64 x) { return x != 0 && (x & (x - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(u64 x) {
  assert(is_pow2(x));
  return static_cast<unsigned>(std::countr_zero(x));
}

/// Number of set bits, by a SWAR sum that compiles inline. At the baseline
/// x86-64 target (no POPCNT) GCC compiles std::popcount to a call into
/// libgcc's __popcountdi2.
constexpr unsigned popcount64(u64 x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/// Even parity of a 64-bit word: 1 if the number of set bits is odd. GCC
/// compiles std::popcount's low bit inline (an xor-fold and setnp).
constexpr unsigned parity64(u64 x) {
  return static_cast<unsigned>(std::popcount(x)) & 1u;
}

/// Extract bit `i` (0 = LSB).
constexpr unsigned bit_of(u64 x, unsigned i) {
  assert(i < 64);
  return static_cast<unsigned>((x >> i) & 1u);
}

/// Return `x` with bit `i` set to `v` (v must be 0 or 1).
constexpr u64 with_bit(u64 x, unsigned i, unsigned v) {
  assert(i < 64);
  assert(v <= 1);
  return (x & ~(u64{1} << i)) | (u64{v} << i);
}

/// Return `x` with bit `i` flipped.
constexpr u64 flip_bit(u64 x, unsigned i) {
  assert(i < 64);
  return x ^ (u64{1} << i);
}

/// Extract `len` bits starting at `lo`.
constexpr u64 bits_of(u64 x, unsigned lo, unsigned len) {
  assert(lo < 64 && len <= 64 && (len == 64 || lo + len <= 64));
  if (len == 64) return x >> lo;
  return (x >> lo) & ((u64{1} << len) - 1);
}

/// Round `x` up to the next multiple of `m` (m must be a power of two).
constexpr u64 round_up_pow2(u64 x, u64 m) {
  assert(is_pow2(m));
  return (x + m - 1) & ~(m - 1);
}

}  // namespace aeep
