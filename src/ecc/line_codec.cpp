#include "ecc/line_codec.hpp"

#include <cassert>
#include <stdexcept>

namespace aeep::ecc {

namespace {
int severity(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return 0;
    case DecodeStatus::kCorrectedSingle: return 1;
    case DecodeStatus::kDetectedError: return 2;
    case DecodeStatus::kDetectedDouble: return 3;
  }
  return 4;
}
}  // namespace

DecodeStatus worse(DecodeStatus a, DecodeStatus b) {
  return severity(a) >= severity(b) ? a : b;
}

LineCodec::LineCodec(const WordCodec& word_codec, unsigned line_bytes)
    : codec_(&word_codec), words_(line_bytes / 8) {
  if (line_bytes == 0 || line_bytes % 8 != 0)
    throw std::invalid_argument("line_bytes must be a positive multiple of 8");
}

void LineCodec::encode(std::span<const u64> data,
                       std::span<u64> check_out) const {
  assert(data.size() == words_ && check_out.size() == words_);
  codec_->encode_batch(data, check_out);
}

void LineCodec::encode_dirty(std::span<const u64> data, u64 dirty_mask,
                             std::span<u64> check_out) const {
  assert(data.size() == words_ && check_out.size() == words_);
  codec_->encode_batch_masked(data, dirty_mask, check_out);
}

LineDecodeSummary LineCodec::decode(std::span<const u64> data,
                                    std::span<const u64> check,
                                    std::span<u64> data_out) const {
  assert(data.size() == words_ && check.size() == words_ &&
         data_out.size() == words_);
  LineDecodeSummary out;
  // Batched clean scan first: on the overwhelmingly common clean line this
  // is one SWAR re-encode + compare per word and no branches into the
  // scalar decoder. Words the scan flags get the full syndrome treatment;
  // a flagged word is flagged by the scalar decoder too (same re-encode),
  // so the two paths agree bit for bit.
  const u64 mm = codec_->mismatch_mask(data, check);
  if (mm == 0) {
    for (unsigned w = 0; w < words_; ++w) data_out[w] = data[w];
    out.words_ok = words_;
    return out;
  }
  for (unsigned w = 0; w < words_; ++w) {
    if ((mm & (u64{1} << w)) == 0) {
      data_out[w] = data[w];
      ++out.words_ok;
      continue;
    }
    const DecodeResult r = codec_->decode(data[w], check[w]);
    data_out[w] = r.data;  // on kDetected* every codec echoes the stored word
    out.worst = worse(out.worst, r.status);
    switch (r.status) {
      case DecodeStatus::kOk: ++out.words_ok; break;
      case DecodeStatus::kCorrectedSingle: ++out.words_corrected; break;
      case DecodeStatus::kDetectedError:
      case DecodeStatus::kDetectedDouble: ++out.words_detected; break;
    }
  }
  return out;
}

}  // namespace aeep::ecc
