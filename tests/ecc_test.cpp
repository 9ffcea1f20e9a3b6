// Tests for the error-code implementations: parity, byte parity, and the
// SECDED(72,64) extended Hamming code — including exhaustive single-bit
// correction over all codeword positions and double-bit detection sweeps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/line_codec.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"

namespace aeep::ecc {
namespace {

TEST(ParityCodec, EncodesEvenParity) {
  ParityCodec even(false);
  EXPECT_EQ(even.encode(0), 0u);
  EXPECT_EQ(even.encode(1), 1u);
  EXPECT_EQ(even.encode(0b11), 0u);
  EXPECT_EQ(even.encode(0b111), 1u);
  EXPECT_EQ(even.check_bits(), 1u);
  EXPECT_FALSE(even.corrects_single());
}

TEST(ParityCodec, OddParityComplementsEven) {
  ParityCodec even(false), odd(true);
  Xorshift64Star rng(11);
  for (int i = 0; i < 1000; ++i) {
    const u64 x = rng.next();
    EXPECT_EQ(even.encode(x) ^ 1u, odd.encode(x));
  }
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

TEST(ByteParityCodec, DetectsFlipsInEachByte) {
  ByteParityCodec codec;
  EXPECT_EQ(codec.check_bits(), 8u);
  const u64 x = 0xA5A5A5A55A5A5A5Aull;
  const u64 c = codec.encode(x);
  EXPECT_EQ(codec.decode(x, c).status, DecodeStatus::kOk);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(codec.decode(flip_bit(x, b), c).status,
              DecodeStatus::kDetectedError)
        << "bit " << b;
  }
}

TEST(ByteParityCodec, DetectsDoubleFlipAcrossBytes) {
  ByteParityCodec codec;
  const u64 x = 0x1111111122222222ull;
  const u64 c = codec.encode(x);
  // Two flips in different bytes remain detectable (unlike word parity).
  EXPECT_EQ(codec.decode(flip_bit(flip_bit(x, 1), 62), c).status,
            DecodeStatus::kDetectedError);
}

// ---------------------------------------------------------------------------
// SECDED
// ---------------------------------------------------------------------------

TEST(Secded, MetaData) {
  SecdedCodec codec;
  EXPECT_EQ(codec.check_bits(), 8u);
  EXPECT_TRUE(codec.corrects_single());
  EXPECT_EQ(codec.name(), "secded(72,64)");
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
// Line codec
// ---------------------------------------------------------------------------

// Per-word reference for the line codec: every word through the scalar
// WordCodec::encode/decode, results in freshly allocated vectors. The span
// API (batched encode, mismatch-scan decode) must agree with it exactly.
std::vector<u64> encode_alloc(const WordCodec& codec,
                              const std::vector<u64>& data) {
  std::vector<u64> check;
  for (const u64 w : data) check.push_back(codec.encode(w));
  return check;
}

struct AllocDecode {
  LineDecodeSummary summary;
  std::vector<u64> data;  ///< corrected payload
};

AllocDecode decode_alloc(const WordCodec& codec, const std::vector<u64>& data,
                         const std::vector<u64>& check) {
  AllocDecode out;
  for (std::size_t w = 0; w < data.size(); ++w) {
    const DecodeResult r = codec.decode(data[w], check[w]);
    out.data.push_back(r.data);
    out.summary.worst = worse(out.summary.worst, r.status);
    switch (r.status) {
      case DecodeStatus::kOk: ++out.summary.words_ok; break;
      case DecodeStatus::kCorrectedSingle:
        ++out.summary.words_corrected;
        break;
      case DecodeStatus::kDetectedError:
      case DecodeStatus::kDetectedDouble:
        ++out.summary.words_detected;
        break;
    }
  }
  return out;
}

TEST(LineCodec, RoundTripsCleanLine) {
  SecdedCodec secded;
  LineCodec lc(secded, 64);
  EXPECT_EQ(lc.words_per_line(), 8u);
  EXPECT_EQ(lc.check_bits_per_line(), 64u);

  Xorshift64Star rng(31);
  std::vector<u64> data(8), check(8), out(8);
  for (auto& w : data) w = rng.next();
  lc.encode(data, check);

  const LineDecodeSummary r = lc.decode(data, check, out);
  EXPECT_EQ(r.worst, DecodeStatus::kOk);
  EXPECT_EQ(r.words_ok, 8u);
  EXPECT_EQ(out, data);
}

TEST(LineCodec, CorrectsScatteredSingleBitErrors) {
  SecdedCodec secded;
  LineCodec lc(secded, 64);
  Xorshift64Star rng(32);
  std::vector<u64> data(8), check(8), out(8);
  for (auto& w : data) w = rng.next();
  const std::vector<u64> golden = data;
  lc.encode(data, check);

  // One flip in every word: all corrected independently.
  for (auto& w : data)
    w = flip_bit(w, static_cast<unsigned>(rng.next_below(64)));

  const LineDecodeSummary r = lc.decode(data, check, out);
  EXPECT_EQ(r.worst, DecodeStatus::kCorrectedSingle);
  EXPECT_EQ(r.words_corrected, 8u);
  EXPECT_EQ(out, golden);
}

TEST(LineCodec, ReportsWorstStatusAcrossWords) {
  SecdedCodec secded;
  LineCodec lc(secded, 64);
  std::vector<u64> data(8), check(8), out(8);
  for (unsigned w = 0; w < 8; ++w) data[w] = 0x1111111111111111ull * (w + 1);
  lc.encode(data, check);
  data[2] = flip_bit(data[2], 5);                       // single
  data[6] = flip_bit(flip_bit(data[6], 1), 60);         // double

  const LineDecodeSummary r = lc.decode(data, check, out);
  EXPECT_EQ(r.worst, DecodeStatus::kDetectedDouble);
  EXPECT_EQ(r.words_corrected, 1u);
  EXPECT_EQ(r.words_detected, 1u);
  EXPECT_EQ(r.words_ok, 6u);
}

TEST(LineCodec, RejectsBadLineSize) {
  SecdedCodec secded;
  EXPECT_THROW(LineCodec(secded, 0), std::invalid_argument);
  EXPECT_THROW(LineCodec(secded, 7), std::invalid_argument);
  EXPECT_NO_THROW(LineCodec(secded, 32));
}

// ---------------------------------------------------------------------------
// Scratch-buffer API equivalence: the allocation-free encode/decode must
// agree exactly with the per-word allocating reference above across all
// three codecs, on clean lines and on lines with corrected / detected
// errors.
// ---------------------------------------------------------------------------

class LineCodecScratchEquivalence
    : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    const std::string which = GetParam();
    if (which == "parity") return parity_;
    if (which == "byte-parity") return byte_parity_;
    return secded_;
  }

  ParityCodec parity_;
  ByteParityCodec byte_parity_;
  SecdedCodec secded_;
};

TEST_P(LineCodecScratchEquivalence, EncodeMatchesAllocOnRandomLines) {
  LineCodec lc(codec(), 64);
  Xorshift64Star rng(41);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    lc.encode(data, check);
    EXPECT_EQ(check, encode_alloc(codec(), data));
  }
}

TEST_P(LineCodecScratchEquivalence, DecodeMatchesAllocWithInjectedErrors) {
  LineCodec lc(codec(), 64);
  Xorshift64Star rng(42);
  std::vector<u64> data(8), check(8), scratch_out(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    lc.encode(data, check);

    // Exercise every path: clean, single flip (corrected by SECDED,
    // detected by the parity codecs), double flip in one word (detected by
    // SECDED and byte parity, missed by word parity).
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
    const LineDecodeSummary scratch = lc.decode(data, check, scratch_out);
    EXPECT_EQ(scratch, alloc.summary);
    EXPECT_EQ(scratch_out, alloc.data);
  }
}

TEST_P(LineCodecScratchEquivalence, DecodeInPlaceAliasingRepairsLine) {
  LineCodec lc(codec(), 64);
  Xorshift64Star rng(43);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& w : data) w = rng.next();
    lc.encode(data, check);
    if (iter % 2 == 1) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
    }
    const AllocDecode alloc = decode_alloc(codec(), data, check);
    // data_out aliases data: decode must leave the corrected payload there.
    const LineDecodeSummary scratch = lc.decode(data, check, data);
    EXPECT_EQ(scratch.worst, alloc.summary.worst);
    EXPECT_EQ(data, alloc.data);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, LineCodecScratchEquivalence,
                         ::testing::Values("parity", "byte-parity", "secded"));

// ---------------------------------------------------------------------------
// Batched SWAR paths: encode_batch / encode_batch_masked / mismatch_mask must
// agree bit-for-bit with the scalar per-word virtual calls on every codec —
// the hot paths (line encode, clean scans, silent-write elision) lean on
// this equivalence.
// ---------------------------------------------------------------------------

class BatchedCodecEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    const std::string which = GetParam();
    if (which == "parity") return parity_;
    if (which == "odd-parity") return odd_parity_;
    if (which == "byte-parity") return byte_parity_;
    return secded_;
  }

  ParityCodec parity_;
  ParityCodec odd_parity_{true};
  ByteParityCodec byte_parity_;
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
                         ::testing::Values("parity", "odd-parity",
                                           "byte-parity", "secded"));

TEST(ByteParityCodec, SwarEncodeMatchesReferenceLoop) {
  ByteParityCodec c;
  Xorshift64Star rng(80);
  for (int iter = 0; iter < 2000; ++iter) {
    const u64 x = iter < 3 ? static_cast<u64>(iter) : rng.next();
    u64 ref = 0;
    for (unsigned b = 0; b < 8; ++b) {
      const auto byte = static_cast<unsigned>((x >> (8 * b)) & 0xFF);
      ref |= static_cast<u64>(popcount64(byte) & 1) << b;
    }
    EXPECT_EQ(c.encode(x), ref) << "word " << std::hex << x;
  }
}

TEST(LineCodec, EncodeDirtyReencodesExactlyTheDirtyWords) {
  SecdedCodec secded;
  LineCodec lc(secded, 64);
  Xorshift64Star rng(81);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    lc.encode(data, check);

    // Mutate a random subset and refresh only those words' codes.
    const u64 dirty = rng.next() & 0xFF;
    const std::vector<u64> stale_check = check;
    for (unsigned w = 0; w < 8; ++w)
      if (dirty & (u64{1} << w)) data[w] = rng.next();
    lc.encode_dirty(data, dirty, check);

    for (unsigned w = 0; w < 8; ++w) {
      if (dirty & (u64{1} << w))
        EXPECT_EQ(check[w], secded.encode(data[w]));
      else
        EXPECT_EQ(check[w], stale_check[w]);
    }
    // The refreshed line must decode clean end to end.
    std::vector<u64> out(8);
    EXPECT_EQ(lc.decode(data, check, out).worst, DecodeStatus::kOk);
    EXPECT_EQ(out, data);
  }
}

TEST(LineCodec, WorseOrdersSeverity) {
  EXPECT_EQ(worse(DecodeStatus::kOk, DecodeStatus::kCorrectedSingle),
            DecodeStatus::kCorrectedSingle);
  EXPECT_EQ(worse(DecodeStatus::kDetectedDouble, DecodeStatus::kCorrectedSingle),
            DecodeStatus::kDetectedDouble);
  EXPECT_EQ(worse(DecodeStatus::kDetectedError, DecodeStatus::kOk),
            DecodeStatus::kDetectedError);
}

}  // namespace
}  // namespace aeep::ecc
