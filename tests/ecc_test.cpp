// Tests for the error-code implementations: parity and the SECDED extended
// Hamming code — exhaustive single-bit correction over all codeword
// positions and double-bit detection sweeps at the paper's 64-bit width and
// at every granule width the ablation bench studies, golden check bits, and
// the whole-line paths the protection schemes call.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"

namespace aeep::ecc {
namespace {

TEST(ParityCodec, EncodesEvenParity) {
  ParityCodec even;
  EXPECT_EQ(even.encode(0), 0u);
  EXPECT_EQ(even.encode(1), 1u);
  EXPECT_EQ(even.encode(0b11), 0u);
  EXPECT_EQ(even.encode(0b111), 1u);
  EXPECT_EQ(even.check_bits(), 1u);
}

TEST(ParityCodec, CleanWordDecodesOk) {
  ParityCodec codec;
  Xorshift64Star rng(12);
  for (int i = 0; i < 1000; ++i) {
    const u64 x = rng.next();
    const auto r = codec.decode(x, codec.encode(x));
    EXPECT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(r.data, x);
  }
}

TEST(ParityCodec, DetectsEverySingleBitFlip) {
  ParityCodec codec;
  const u64 x = 0xDEADBEEFCAFEF00Dull;
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(codec.decode(flip_bit(x, b), c).status,
              DecodeStatus::kDetectedError);
  }
  // And a flipped check bit.
  EXPECT_EQ(codec.decode(x, c ^ 1u).status, DecodeStatus::kDetectedError);
}

TEST(ParityCodec, MissesDoubleBitFlips) {
  // Inherent parity limitation — documents the clean-line refetch rationale:
  // a double flip in a clean line is invisible to parity, but the line's
  // content is still recoverable from memory, so refetch-on-any-doubt works
  // only for detected errors; double errors in clean lines are the residual
  // vulnerability of parity (as in commercial parts).
  ParityCodec codec;
  const u64 x = 0x0123456789ABCDEFull;
  const u64 c = codec.encode(x);
  EXPECT_EQ(codec.decode(flip_bit(flip_bit(x, 3), 47), c).status,
            DecodeStatus::kOk);
}

// ---------------------------------------------------------------------------
// SECDED
// ---------------------------------------------------------------------------

TEST(Secded, MetaData) {
  SecdedCodec codec;
  EXPECT_EQ(codec.check_bits(), 8u);
  EXPECT_EQ(codec.data_bits(), 64u);
}

TEST(Secded, CleanWordsDecodeOk) {
  SecdedCodec codec;
  Xorshift64Star rng(21);
  for (int i = 0; i < 2000; ++i) {
    const u64 x = rng.next();
    const u64 c = codec.encode(x);
    EXPECT_LT(c, 256u);  // 8 live check bits
    const auto r = codec.decode(x, c);
    EXPECT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(r.data, x);
    EXPECT_EQ(r.check, c);
  }
}

/// Exhaustive: every single-bit flip in the 72-bit codeword is corrected,
/// over a set of data words.
class SecdedSingleBit : public ::testing::TestWithParam<u64> {};

TEST_P(SecdedSingleBit, CorrectsEveryDataBitFlip) {
  SecdedCodec codec;
  const u64 x = GetParam();
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 64; ++b) {
    const auto r = codec.decode(flip_bit(x, b), c);
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "bit " << b;
    EXPECT_EQ(r.data, x) << "bit " << b;
    EXPECT_EQ(r.check, c) << "bit " << b;
    EXPECT_EQ(r.corrected_bit, b);
  }
}

TEST_P(SecdedSingleBit, CorrectsEveryCheckBitFlip) {
  SecdedCodec codec;
  const u64 x = GetParam();
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 8; ++b) {
    const auto r = codec.decode(x, flip_bit(c, b));
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "check bit " << b;
    EXPECT_EQ(r.data, x);
    EXPECT_EQ(r.check, c);
    EXPECT_EQ(r.corrected_bit, 64 + b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Words, SecdedSingleBit,
    ::testing::Values(u64{0}, ~u64{0}, u64{1}, u64{0x8000000000000000ull},
                      u64{0xDEADBEEFCAFEF00Dull}, u64{0x5555555555555555ull},
                      u64{0xAAAAAAAAAAAAAAAAull}, u64{0x0123456789ABCDEFull},
                      u64{0xF0F0F0F00F0F0F0Full}, u64{42}));

TEST(Secded, DetectsAllDoubleDataBitFlips) {
  SecdedCodec codec;
  const u64 x = 0xC0FFEE0DDBA11AD5ull;
  const u64 c = codec.encode(x);
  // Exhaustive over all 64*63/2 data-bit pairs.
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = i + 1; j < 64; ++j) {
      const auto r = codec.decode(flip_bit(flip_bit(x, i), j), c);
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "bits " << i << "," << j;
    }
  }
}

TEST(Secded, DetectsDataPlusCheckDoubleFlips) {
  SecdedCodec codec;
  const u64 x = 0x123456789ABCDEF0ull;
  const u64 c = codec.encode(x);
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 8; ++j) {
      const auto r = codec.decode(flip_bit(x, i), flip_bit(c, j));
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "data bit " << i << ", check bit " << j;
    }
  }
}

TEST(Secded, DetectsCheckCheckDoubleFlips) {
  SecdedCodec codec;
  const u64 x = 0x998877665544332ull;
  const u64 c = codec.encode(x);
  for (unsigned i = 0; i < 8; ++i) {
    for (unsigned j = i + 1; j < 8; ++j) {
      const auto r = codec.decode(x, flip_bit(flip_bit(c, i), j));
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "check bits " << i << "," << j;
    }
  }
}

TEST(Secded, CheckBitsDifferAcrossNeighbouringWords) {
  // The code must actually depend on the data (regression against a codec
  // that returns constants).
  SecdedCodec codec;
  Xorshift64Star rng(22);
  unsigned diff = 0;
  for (int i = 0; i < 256; ++i) {
    const u64 x = rng.next();
    if (codec.encode(x) != codec.encode(x + 1)) ++diff;
  }
  EXPECT_GT(diff, 200u);
}

// ---------------------------------------------------------------------------
// SECDED at every granule width (span API)
// ---------------------------------------------------------------------------

std::vector<u64> random_data(unsigned data_bits, Xorshift64Star& rng) {
  std::vector<u64> data((data_bits + 63) / 64);
  for (auto& w : data) w = rng.next();
  // Mask unused high bits for clean comparisons.
  const unsigned rem = data_bits % 64;
  if (rem) data.back() &= (u64{1} << rem) - 1;
  return data;
}

void flip(std::vector<u64>& data, unsigned bit) {
  data[bit / 64] ^= u64{1} << (bit % 64);
}

TEST(WideSecded, CheckBitCounts) {
  // r is the smallest with 2^r >= k + r + 1; +1 for the overall bit.
  EXPECT_EQ(SecdedCodec(8).check_bits(), 5u);    // r=4
  EXPECT_EQ(SecdedCodec(32).check_bits(), 7u);   // r=6
  EXPECT_EQ(SecdedCodec(64).check_bits(), 8u);   // r=7: the paper's 12.5%
  EXPECT_EQ(SecdedCodec(128).check_bits(), 9u);
  EXPECT_EQ(SecdedCodec(256).check_bits(), 10u);
  EXPECT_EQ(SecdedCodec(512).check_bits(), 11u);  // 10 + 1: 2.1%
}

TEST(WideSecded, OverheadShrinksWithWidth) {
  double prev = 1.0;
  for (unsigned w : {8u, 32u, 64u, 128u, 256u, 512u}) {
    const SecdedCodec codec(w);
    const double overhead = static_cast<double>(codec.check_bits()) /
                            static_cast<double>(codec.data_bits());
    EXPECT_LT(overhead, prev);
    prev = overhead;
  }
  EXPECT_EQ(SecdedCodec(64).check_bits() * 8, 64u);  // 12.5%
}

TEST(WideSecded, RejectsOutOfRangeWidths) {
  EXPECT_THROW(SecdedCodec(4), std::invalid_argument);
  EXPECT_THROW(SecdedCodec(7), std::invalid_argument);
  EXPECT_THROW(SecdedCodec(4097), std::invalid_argument);
  EXPECT_THROW(SecdedCodec(5000), std::invalid_argument);
  EXPECT_NO_THROW(SecdedCodec(8));
  EXPECT_NO_THROW(SecdedCodec(4096));
}

class WideSecdedWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(WideSecdedWidths, CleanDecodesOk) {
  const unsigned bits = GetParam();
  const SecdedCodec codec(bits);
  Xorshift64Star rng(bits * 7 + 1);
  for (int t = 0; t < 50; ++t) {
    auto data = random_data(bits, rng);
    u64 check = codec.encode(data);
    const auto golden = data;
    const auto r = codec.decode(data, check);
    EXPECT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(data, golden);
  }
}

TEST_P(WideSecdedWidths, CorrectsEverySingleDataBit) {
  const unsigned bits = GetParam();
  const SecdedCodec codec(bits);
  Xorshift64Star rng(bits * 11 + 3);
  auto golden = random_data(bits, rng);
  const u64 check0 = codec.encode(golden);
  for (unsigned b = 0; b < bits; ++b) {
    auto data = golden;
    u64 check = check0;
    flip(data, b);
    const auto r = codec.decode(data, check);
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "bit " << b;
    EXPECT_EQ(r.corrected_bit, b);
    EXPECT_EQ(data, golden);
    EXPECT_EQ(check, check0);
  }
}

TEST_P(WideSecdedWidths, CorrectsEverySingleCheckBit) {
  const unsigned bits = GetParam();
  const SecdedCodec codec(bits);
  Xorshift64Star rng(bits * 13 + 5);
  auto golden = random_data(bits, rng);
  const u64 check0 = codec.encode(golden);
  for (unsigned c = 0; c < codec.check_bits(); ++c) {
    auto data = golden;
    u64 check = check0 ^ (u64{1} << c);
    const auto r = codec.decode(data, check);
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "check bit " << c;
    EXPECT_EQ(r.corrected_bit, bits + c);
    EXPECT_EQ(check, check0);
  }
}

TEST_P(WideSecdedWidths, DetectsSampledDoubleBits) {
  const unsigned bits = GetParam();
  const SecdedCodec codec(bits);
  Xorshift64Star rng(bits * 17 + 7);
  auto golden = random_data(bits, rng);
  const u64 check0 = codec.encode(golden);
  const int samples = bits <= 64 ? 500 : 200;
  for (int t = 0; t < samples; ++t) {
    const unsigned b1 = static_cast<unsigned>(rng.next_below(bits));
    unsigned b2 = b1;
    while (b2 == b1) b2 = static_cast<unsigned>(rng.next_below(bits));
    auto data = golden;
    u64 check = check0;
    flip(data, b1);
    flip(data, b2);
    const auto r = codec.decode(data, check);
    ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
        << "bits " << b1 << "," << b2;
  }
}

TEST_P(WideSecdedWidths, DetectsDataPlusCheckDoubles) {
  const unsigned bits = GetParam();
  const SecdedCodec codec(bits);
  Xorshift64Star rng(bits * 19 + 9);
  auto golden = random_data(bits, rng);
  const u64 check0 = codec.encode(golden);
  for (int t = 0; t < 100; ++t) {
    const unsigned b = static_cast<unsigned>(rng.next_below(bits));
    const unsigned c = static_cast<unsigned>(rng.next_below(codec.check_bits()));
    auto data = golden;
    u64 check = check0 ^ (u64{1} << c);
    flip(data, b);
    EXPECT_EQ(codec.decode(data, check).status, DecodeStatus::kDetectedDouble);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideSecdedWidths,
                         ::testing::Values(8u, 16u, 32u, 64u, 100u, 128u,
                                           247u, 256u, 512u));

TEST(WideSecded, CheckBitsMatchGoldenVectors) {
  // Recorded from the separate fixed-width and width-parameterised codecs
  // this one replaced (they agreed). A changed position layout or check-bit
  // order fails here, although it would still be a valid SECDED.
  struct Golden {
    unsigned width;
    u64 check[3];
  };
  const Golden golden[] = {
      {8, {0x1c, 0x14, 0x1a}},      {32, {0x35, 0x62, 0x31}},
      {64, {0xcc, 0x58, 0xe1}},     {100, {0x80, 0x43, 0x5f}},
      {512, {0x5e4, 0x71d, 0x74f}},
  };
  for (const Golden& g : golden) {
    const SecdedCodec codec(g.width);
    for (unsigned v = 0; v < 3; ++v) {
      std::vector<u64> data((g.width + 63) / 64);
      for (std::size_t k = 0; k < data.size(); ++k)
        data[k] = 0x9E3779B97F4A7C15ull * (k + 1 + 16 * v);
      const unsigned rem = g.width % 64;
      if (rem) data.back() &= (u64{1} << rem) - 1;
      EXPECT_EQ(codec.encode(data), g.check[v])
          << "width " << g.width << " vector " << v;
      if (g.width == 64) {
        EXPECT_EQ(codec.encode(data[0]), g.check[v]);
      }
      // Bits beyond the granule are ignored.
      if (rem) data.back() |= ~((u64{1} << rem) - 1);
      EXPECT_EQ(codec.encode(data), g.check[v]);
    }
  }
}

TEST(WideSecded, MatchesFixedSecdedAt64) {
  // At width 64 the span API and the fixed-width word API are one code:
  // the same check bits, and the same verdict and repair for every single
  // and double flip anywhere in the 72-bit codeword.
  const SecdedCodec codec;
  Xorshift64Star rng(101);
  for (int t = 0; t < 2000; ++t) {
    const u64 word = rng.next();
    const u64 check = codec.encode(word);
    ASSERT_EQ(codec.encode(std::span<const u64>(&word, 1)), check);

    u64 bad_word = word;
    u64 bad_check = check;
    const unsigned b1 = static_cast<unsigned>(rng.next_below(72));
    unsigned b2 = b1;
    while (t % 2 == 1 && b2 == b1)
      b2 = static_cast<unsigned>(rng.next_below(72));
    for (const unsigned b : {b1, b2}) {
      if (b < 64)
        bad_word = flip_bit(bad_word, b);
      else
        bad_check = flip_bit(bad_check, b - 64);
      if (b2 == b1) break;
    }

    const DecodeResult word_r = codec.decode(bad_word, bad_check);
    u64 span_word = bad_word;
    u64 span_check = bad_check;
    const DecodeResult span_r =
        codec.decode(std::span<u64>(&span_word, 1), span_check);
    EXPECT_EQ(span_r.status, word_r.status) << "bits " << b1 << "," << b2;
    EXPECT_EQ(span_r.corrected_bit, word_r.corrected_bit);
    EXPECT_EQ(span_word, word_r.data);
    EXPECT_EQ(span_check, word_r.check);
    if (b2 == b1) {
      EXPECT_EQ(span_r.status, DecodeStatus::kCorrectedSingle);
      EXPECT_EQ(span_word, word);
      EXPECT_EQ(span_check, check);
    } else {
      EXPECT_EQ(span_r.status, DecodeStatus::kDetectedDouble);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-line API: the calls the protection schemes make per line
// ---------------------------------------------------------------------------

// Per-word reference for the line API: every word through the scalar
// WordCodec::encode/decode, results in freshly allocated vectors.
std::vector<u64> encode_alloc(const WordCodec& codec,
                              const std::vector<u64>& data) {
  std::vector<u64> check;
  for (const u64 w : data) check.push_back(codec.encode(w));
  return check;
}

struct AllocDecode {
  LineRepair fix;
  std::vector<u64> data;   ///< payload after per-word repair
  std::vector<u64> check;  ///< check words after per-word repair
};

AllocDecode decode_alloc(const WordCodec& codec, const std::vector<u64>& data,
                         const std::vector<u64>& check) {
  AllocDecode out{{}, data, check};
  for (std::size_t w = 0; w < data.size(); ++w) {
    const DecodeResult r = codec.decode(data[w], check[w]);
    switch (r.status) {
      case DecodeStatus::kOk: break;
      case DecodeStatus::kCorrectedSingle:
        out.data[w] = r.data;
        out.check[w] = r.check;
        out.fix.corrected_mask |= u64{1} << w;
        ++out.fix.words_corrected;
        break;
      case DecodeStatus::kDetectedError:
      case DecodeStatus::kDetectedDouble:
        ++out.fix.words_detected;
        break;
    }
  }
  return out;
}

void expect_same_fix(const LineRepair& got, const LineRepair& want) {
  EXPECT_EQ(got.words_corrected, want.words_corrected);
  EXPECT_EQ(got.words_detected, want.words_detected);
  EXPECT_EQ(got.corrected_mask, want.corrected_mask);
}

TEST(LineCodec, RoundTripsCleanLine) {
  const SecdedCodec secded;
  Xorshift64Star rng(31);
  std::vector<u64> data(8), check(8);
  for (auto& w : data) w = rng.next();
  secded.encode_batch(data, check);
  const std::vector<u64> golden = data, golden_check = check;

  expect_same_fix(secded.correct_line(data, check), LineRepair{});
  EXPECT_EQ(data, golden);
  EXPECT_EQ(check, golden_check);
}

TEST(LineCodec, CorrectsScatteredSingleBitErrors) {
  const SecdedCodec secded;
  Xorshift64Star rng(32);
  std::vector<u64> data(8), check(8);
  for (auto& w : data) w = rng.next();
  secded.encode_batch(data, check);
  const std::vector<u64> golden = data, golden_check = check;

  // One flip in every word — seven in the data, one in a check word: all
  // corrected independently, data and check repaired in place.
  for (unsigned w = 0; w < 7; ++w)
    data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
  check[7] = flip_bit(check[7], static_cast<unsigned>(rng.next_below(8)));

  expect_same_fix(secded.correct_line(data, check), LineRepair{8, 0, 0xFF});
  EXPECT_EQ(data, golden);
  EXPECT_EQ(check, golden_check);
}

TEST(LineCodec, ReportsWorstStatusAcrossWords) {
  const SecdedCodec secded;
  std::vector<u64> data(8), check(8);
  for (unsigned w = 0; w < 8; ++w) data[w] = 0x1111111111111111ull * (w + 1);
  secded.encode_batch(data, check);
  const std::vector<u64> golden = data, golden_check = check;
  data[2] = flip_bit(data[2], 5);                       // single
  data[6] = flip_bit(flip_bit(data[6], 1), 60);         // double
  const u64 damaged = data[6];

  // The single is repaired; the double is counted and left as stored.
  expect_same_fix(secded.correct_line(data, check),
                  LineRepair{1, 1, u64{1} << 2});
  EXPECT_EQ(data[2], golden[2]);
  EXPECT_EQ(data[6], damaged);
  EXPECT_EQ(check, golden_check);
}

TEST(LineCodec, EncodeDirtyReencodesExactlyTheDirtyWords) {
  const SecdedCodec secded;
  Xorshift64Star rng(81);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    secded.encode_batch(data, check);

    // Mutate a random subset and refresh only those words' codes.
    const u64 dirty = rng.next() & 0xFF;
    const std::vector<u64> stale_check = check;
    for (unsigned w = 0; w < 8; ++w)
      if (dirty & (u64{1} << w)) data[w] = rng.next();
    secded.encode_batch_masked(data, dirty, check);

    for (unsigned w = 0; w < 8; ++w) {
      if (dirty & (u64{1} << w))
        EXPECT_EQ(check[w], secded.encode(data[w]));
      else
        EXPECT_EQ(check[w], stale_check[w]);
    }
    // The refreshed line must check clean end to end.
    const std::vector<u64> golden = data;
    expect_same_fix(secded.correct_line(data, check), LineRepair{});
    EXPECT_EQ(data, golden);
  }
}

// ---------------------------------------------------------------------------
// Line API equivalence: each code's line check must agree exactly with the
// per-word reference above, on clean lines and on lines with corrected /
// detected errors.
// ---------------------------------------------------------------------------

class LineCodecScratchEquivalence
    : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    if (std::string(GetParam()) == "parity") return parity_;
    return secded_;
  }

  /// The line check a protection scheme runs with this code: SECDED repairs
  /// in place through correct_line; parity can only flag words (a clean
  /// line that fails parity is re-fetched, never repaired).
  LineRepair check_line(std::vector<u64>& data, std::vector<u64>& check) {
    if (std::string(GetParam()) == "parity")
      return {0, popcount64(parity_.mismatch_mask(data, check)), 0};
    return secded_.correct_line(data, check);
  }

  ParityCodec parity_;
  SecdedCodec secded_;
};

TEST_P(LineCodecScratchEquivalence, EncodeMatchesAllocOnRandomLines) {
  Xorshift64Star rng(41);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    codec().encode_batch(data, check);
    EXPECT_EQ(check, encode_alloc(codec(), data));
  }
}

TEST_P(LineCodecScratchEquivalence, DecodeMatchesAllocWithInjectedErrors) {
  Xorshift64Star rng(42);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    codec().encode_batch(data, check);

    // Exercise every path: clean, single flip (corrected by SECDED,
    // detected by parity), double flip in one word (detected by SECDED,
    // missed by parity).
    const unsigned mode = static_cast<unsigned>(iter) % 3;
    if (mode >= 1) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
      if (mode == 2) {
        const unsigned b1 = static_cast<unsigned>(rng.next_below(63));
        data[w] = flip_bit(data[w], b1 + 1);
      }
    }

    const AllocDecode alloc = decode_alloc(codec(), data, check);
    expect_same_fix(check_line(data, check), alloc.fix);
    EXPECT_EQ(data, alloc.data);
    EXPECT_EQ(check, alloc.check);
  }
}

TEST_P(LineCodecScratchEquivalence, DecodeInPlaceAliasingRepairsLine) {
  Xorshift64Star rng(43);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& w : data) w = rng.next();
    codec().encode_batch(data, check);
    if (iter % 2 == 1) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
    }
    const AllocDecode alloc = decode_alloc(codec(), data, check);
    // The check works on the stored line itself: the repaired payload is
    // left in place.
    check_line(data, check);
    EXPECT_EQ(data, alloc.data);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, LineCodecScratchEquivalence,
                         ::testing::Values("parity", "secded"));

// ---------------------------------------------------------------------------
// Batched SWAR paths: encode_batch / encode_batch_masked / mismatch_mask must
// agree bit-for-bit with the scalar per-word virtual calls on every codec —
// the hot paths (line encode, clean scans, silent-write elision) lean on
// this equivalence.
// ---------------------------------------------------------------------------

class BatchedCodecEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    if (std::string(GetParam()) == "parity") return parity_;
    return secded_;
  }

  ParityCodec parity_;
  SecdedCodec secded_;
};

TEST_P(BatchedCodecEquivalence, EncodeBatchMatchesScalar) {
  const WordCodec& c = codec();
  Xorshift64Star rng(77);
  std::vector<u64> data(8), batched(8);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& w : data) w = rng.next();
    c.encode_batch(data, batched);
    for (unsigned w = 0; w < 8; ++w) EXPECT_EQ(batched[w], c.encode(data[w]));
  }
}

TEST_P(BatchedCodecEquivalence, MaskedEncodeTouchesOnlyMaskedWords) {
  const WordCodec& c = codec();
  Xorshift64Star rng(78);
  std::vector<u64> data(8), check(8);
  constexpr u64 kSentinel = 0xA5A5A5A5A5A5A5A5ull;
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    const u64 mask = rng.next() & 0xFF;
    std::fill(check.begin(), check.end(), kSentinel);
    c.encode_batch_masked(data, mask, check);
    for (unsigned w = 0; w < 8; ++w) {
      if (mask & (u64{1} << w))
        EXPECT_EQ(check[w], c.encode(data[w]));
      else
        EXPECT_EQ(check[w], kSentinel) << "unmasked word was overwritten";
    }
  }
}

TEST_P(BatchedCodecEquivalence, MismatchMaskAgreesWithScalarDecodeStatus) {
  const WordCodec& c = codec();
  Xorshift64Star rng(79);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& w : data) w = rng.next();
    c.encode_batch(data, check);
    // Corrupt 0-3 words: data flips, check flips, and double flips.
    for (unsigned k = iter % 4; k > 0; --k) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      if (rng.next_below(2) == 0)
        data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
      else
        check[w] ^= u64{1} << rng.next_below(c.check_bits());
    }
    const u64 mm = c.mismatch_mask(data, check);
    for (unsigned w = 0; w < 8; ++w) {
      const bool flagged = (mm >> w) & 1;
      const bool scalar_bad =
          c.decode(data[w], check[w]).status != DecodeStatus::kOk;
      EXPECT_EQ(flagged, scalar_bad) << "word " << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, BatchedCodecEquivalence,
                         ::testing::Values("parity", "secded"));

}  // namespace
}  // namespace aeep::ecc
