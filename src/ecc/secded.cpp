#include "ecc/secded.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace aeep::ecc {

namespace {
/// Hamming check bits at the default 64-bit width.
constexpr unsigned kHammingBits64 = 7;
}  // namespace

SecdedCodec::SecdedCodec(unsigned data_bits) : data_bits_(data_bits) {
  if (data_bits < 8 || data_bits > 4096)
    throw std::invalid_argument("SecdedCodec: data_bits must be in [8, 4096]");
  hamming_bits_ = 1;
  while ((u64{1} << hamming_bits_) < data_bits_ + hamming_bits_ + 1)
    ++hamming_bits_;
  words_ = (data_bits_ + 63) / 64;

  // Column masks: data bits fill the non-power-of-two codeword positions
  // in order, and check bit i covers every data bit whose position has bit
  // i set. Turns encode/syndrome into one AND+POPCNT fold per check bit.
  column_mask_.assign((hamming_bits_ + 1) * words_, 0);
  unsigned d = 0;
  for (unsigned p = 1; d < data_bits_; ++p) {
    if (is_pow2(p)) continue;
    const u64 bit = u64{1} << (d % 64);
    for (unsigned i = 0; i < hamming_bits_; ++i)
      if ((p >> i) & 1u) column_mask_[i * words_ + d / 64] |= bit;
    column_mask_[hamming_bits_ * words_ + d / 64] |= bit;
    ++d;
  }

  if (data_bits_ != 64) return;
  // Byte-fold tables for the batched paths: the check bits of a word are
  // the XOR of the check bits of its bytes taken one at a time.
  for (unsigned k = 0; k < 8; ++k) {
    for (unsigned v = 0; v < 256; ++v) {
      const u64 word = u64{v} << (8 * k);
      unsigned fold = parity64(word) << kHammingBits64;
      for (unsigned i = 0; i < kHammingBits64; ++i)
        fold |= parity64(word & column_mask_[i]) << i;
      byte_fold_[k][v] = static_cast<u8>(fold);
    }
  }
}

u64 SecdedCodec::encode(u64 data) const {
  assert(data_bits_ == 64);
  u64 check = 0;
  for (unsigned i = 0; i < kHammingBits64; ++i)
    check |= static_cast<u64>(parity64(data & column_mask_[i])) << i;
  // Overall parity over the 71 Hamming codeword bits (data + c0..c6).
  const unsigned overall = parity64(data) ^ parity64(check);
  check |= static_cast<u64>(overall) << kHammingBits64;
  return check;
}

DecodeResult SecdedCodec::decode(u64 data, u64 check) const {
  assert(data_bits_ == 64);
  u64 d = data;
  u64 c = check & check_mask();
  DecodeResult r = decode(std::span<u64>(&d, 1), c);
  r.data = d;
  r.check = c;
  return r;
}

u64 SecdedCodec::encode(std::span<const u64> data) const {
  assert(data.size() >= words_);
  u64 check = 0;
  for (unsigned i = 0; i <= hamming_bits_; ++i) {
    const u64* mask = column_mask_.data() + i * words_;
    u64 acc = 0;
    for (unsigned k = 0; k < words_; ++k) acc ^= data[k] & mask[k];
    check |= static_cast<u64>(parity64(acc)) << i;
  }
  // Bit r now holds the data parity; fold in the Hamming check bits to make
  // it the overall parity of the k+r codeword bits.
  const u64 hamming = check & ((u64{1} << hamming_bits_) - 1);
  return check ^ (static_cast<u64>(parity64(hamming)) << hamming_bits_);
}

DecodeResult SecdedCodec::decode(std::span<u64> data, u64& check) const {
  DecodeResult r;
  const u64 stored = check & check_mask();
  // Bits 0..r-1 of the difference are the syndrome: the XOR of the
  // positions of all flipped bits. An intact codeword has even overall
  // parity, so the parity of the whole difference is the parity of the
  // number of flips.
  const u64 diff = encode(data) ^ stored;
  if (diff == 0) return r;
  const u64 syndrome = diff & ((u64{1} << hamming_bits_) - 1);
  if (parity64(diff) == 0 || syndrome > data_bits_ + hamming_bits_) {
    // Even number of flips, or an odd multi-bit error that aliased to a
    // position outside the codeword.
    r.status = DecodeStatus::kDetectedDouble;
    return r;
  }
  r.status = DecodeStatus::kCorrectedSingle;
  check = stored;
  if (syndrome == 0) {
    // Only the overall parity bit itself flipped.
    check = flip_bit(check, hamming_bits_);
    r.corrected_bit = data_bits_ + hamming_bits_;
  } else if (is_pow2(syndrome)) {
    const unsigned ci = log2_exact(syndrome);
    check = flip_bit(check, ci);
    r.corrected_bit = data_bits_ + ci;
  } else {
    // Position p holds data bit p - (number of check positions below p) - 1.
    const auto at = static_cast<unsigned>(syndrome) -
                    static_cast<unsigned>(std::bit_width(syndrome)) - 1;
    data[at / 64] = flip_bit(data[at / 64], at % 64);
    r.corrected_bit = at;
  }
  return r;
}

// Batched hot path. Eight byte-table lookups per word compute all seven
// Hamming check bits and the data parity in one XOR accumulator — where
// the scalar path pays seven AND + software-popcount column folds (the
// build targets baseline x86-64, so std::popcount is a ~12-op SWAR
// sequence) behind an opaque virtual call per word. The 2 KiB table stays
// L1-resident across a line, and the eight words' chains are independent
// so the CPU overlaps the loads.
u64 SecdedCodec::fold_word(u64 d) const {
  unsigned acc = byte_fold_[0][d & 0xFFu];
  acc ^= byte_fold_[1][(d >> 8) & 0xFFu];
  acc ^= byte_fold_[2][(d >> 16) & 0xFFu];
  acc ^= byte_fold_[3][(d >> 24) & 0xFFu];
  acc ^= byte_fold_[4][(d >> 32) & 0xFFu];
  acc ^= byte_fold_[5][(d >> 40) & 0xFFu];
  acc ^= byte_fold_[6][(d >> 48) & 0xFFu];
  acc ^= byte_fold_[7][(d >> 56) & 0xFFu];
  const unsigned c = acc & 0x7Fu;
  // Overall parity = parity64(d) (bit 7 of acc) ^ parity of the 7-bit c.
  unsigned p = c ^ (c >> 4);
  p ^= p >> 2;
  p ^= p >> 1;
  return c | ((((acc >> 7) ^ p) & 1u) << kHammingBits64);
}

void SecdedCodec::encode_batch(std::span<const u64> data,
                               std::span<u64> check_out) const {
  assert(data_bits_ == 64 && check_out.size() >= data.size());
  for (std::size_t w = 0; w < data.size(); ++w)
    check_out[w] = fold_word(data[w]);
}

void SecdedCodec::encode_batch_masked(std::span<const u64> data, u64 word_mask,
                                      std::span<u64> check_out) const {
  assert(data.size() <= 64 && check_out.size() >= data.size());
  if (data.size() < 64) word_mask &= (u64{1} << data.size()) - 1;
  if (word_mask + 1 == (data.size() < 64 ? u64{1} << data.size() : 0)) {
    // Fully dirty line: take the straight-line batch loop.
    encode_batch(data, check_out);
    return;
  }
  // Sparse masks walk only the set bits (clear-lowest-bit iteration), so a
  // single-word store re-encodes one word, not eight.
  std::span<const u64> all{data};
  for (u64 m = word_mask; m != 0; m &= m - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(m));
    encode_batch(all.subspan(w, 1), check_out.subspan(w, 1));
  }
}

u64 SecdedCodec::mismatch_mask(std::span<const u64> data,
                               std::span<const u64> check) const {
  assert(data_bits_ == 64);
  assert(data.size() <= 64 && check.size() >= data.size());
  u64 mm = 0;
  for (std::size_t w = 0; w < data.size(); ++w)
    mm |= static_cast<u64>(fold_word(data[w]) != (check[w] & 0xFFu)) << w;
  return mm;
}

LineRepair SecdedCodec::correct_line(std::span<u64> data,
                                     std::span<u64> check) const {
  assert(check.size() >= data.size());
  LineRepair out;
  // Batched clean scan first: on the overwhelmingly common clean line this
  // is one table fold + compare per word and no branch into the syndrome
  // decoder. A flagged word never decodes kOk (same re-encode).
  for (u64 mm = mismatch_mask(data, check); mm != 0; mm &= mm - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(mm));
    switch (decode(data.subspan(w, 1), check[w]).status) {
      case DecodeStatus::kOk:
        break;
      case DecodeStatus::kCorrectedSingle:
        out.corrected_mask |= u64{1} << w;
        ++out.words_corrected;
        break;
      case DecodeStatus::kDetectedError:
      case DecodeStatus::kDetectedDouble:
        ++out.words_detected;
        break;
    }
  }
  return out;
}

}  // namespace aeep::ecc
