#include "protect/uniform_ecc.hpp"

namespace aeep::protect {

const char* to_string(ReadOutcome o) {
  switch (o) {
    case ReadOutcome::kOk: return "ok";
    case ReadOutcome::kCorrected: return "corrected";
    case ReadOutcome::kRefetched: return "refetched";
    case ReadOutcome::kUncorrectable: return "uncorrectable";
  }
  return "?";
}

UniformEccScheme::UniformEccScheme(cache::Cache& cache)
    : ProtectionScheme(cache),
      words_(cache.geometry().words_per_line()),
      ecc_(cache.geometry().total_lines() * words_, 0) {}

void UniformEccScheme::encode_words(u64 set, unsigned way, u64 word_mask) {
  const auto data = cache().data(set, way);
  u64* check = ecc_.data() + line_slot(set, way) * words_;
  secded().encode_batch_masked(data, word_mask, {check, words_});
}

void UniformEccScheme::on_fill(u64 set, unsigned way) {
  encode_words(set, way, ~u64{0});
}

void UniformEccScheme::on_write_applied(u64 set, unsigned way, u64 word_mask) {
  encode_words(set, way, word_mask);
}

ReadCheck UniformEccScheme::check_read(u64 set, unsigned way,
                                       const mem::MemoryStore& memory) {
  auto data = cache().data(set, way);
  ReadCheck out =
      ecc_read_check(secded().correct_line(data, ecc_words(set, way)));
  if (out.words_detected > 0 && !cache().meta(set, way).dirty) {
    // A clean line with an uncorrectable (but detected) error can still be
    // recovered by re-fetching from memory — the dirty case is the true DUE.
    memory.read_line(cache().line_addr(set, way), data);
    encode_words(set, way, ~u64{0});
    out.outcome = ReadOutcome::kRefetched;
  }
  return out;
}

std::span<u64> UniformEccScheme::ecc_words(u64 set, unsigned way) {
  return {ecc_.data() + line_slot(set, way) * words_, words_};
}

}  // namespace aeep::protect
