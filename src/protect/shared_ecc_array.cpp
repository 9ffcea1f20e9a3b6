#include "protect/shared_ecc_array.hpp"

#include <cassert>

#include "common/bitops.hpp"

namespace aeep::protect {

SharedEccArrayScheme::SharedEccArrayScheme(cache::Cache& cache,
                                           unsigned entries_per_set)
    : ProtectionScheme(cache),
      words_(cache.geometry().words_per_line()),
      entries_per_set_(entries_per_set),
      parity_(cache.geometry().total_lines() * words_, 0),
      entries_(cache.geometry().num_sets() * entries_per_set),
      entry_check_(cache.geometry().num_sets() * entries_per_set * words_, 0) {
  assert(entries_per_set >= 1 && entries_per_set <= cache.geometry().ways);
}

std::string SharedEccArrayScheme::name() const {
  return "shared-ecc-array(k=" + std::to_string(entries_per_set_) + ")";
}

void SharedEccArrayScheme::encode_parity(u64 set, unsigned way, u64 word_mask) {
  const auto data = cache().data(set, way);
  u64* par = parity_.data() + line_slot(set, way) * words_;
  parity_codec().encode_batch_masked(data, word_mask, {par, words_});
}

SharedEccArrayScheme::EccEntry* SharedEccArrayScheme::find_entry(u64 set,
                                                                 unsigned way) {
  EccEntry* base = entries_.data() + set * entries_per_set_;
  for (unsigned e = 0; e < entries_per_set_; ++e) {
    if (base[e].valid && base[e].way == way) return &base[e];
  }
  return nullptr;
}

u64* SharedEccArrayScheme::entry_check(u64 set, unsigned entry_idx) {
  return entry_check_.data() + (set * entries_per_set_ + entry_idx) * words_;
}

void SharedEccArrayScheme::on_fill(u64 set, unsigned way) {
  encode_parity(set, way, ~u64{0});
  // A fill replaces whatever line was there; its entry must already have
  // been released via on_evict. Nothing else to do.
  assert(find_entry(set, way) == nullptr);
}

std::optional<ForcedWriteback> SharedEccArrayScheme::before_dirty(
    u64 set, unsigned way) {
  if (find_entry(set, way) != nullptr) return std::nullopt;  // already owned

  EccEntry* base = entries_.data() + set * entries_per_set_;
  // Free entry available?
  for (unsigned e = 0; e < entries_per_set_; ++e) {
    if (!base[e].valid) {
      base[e].valid = true;
      base[e].way = way;
      base[e].alloc_seq = ++alloc_seq_;
      return std::nullopt;
    }
  }
  // Set full: evict the oldest-allocated entry. Its line is dirty by the
  // scheme invariant and must be written back before losing ECC coverage.
  unsigned victim = 0;
  for (unsigned e = 1; e < entries_per_set_; ++e) {
    if (base[e].alloc_seq < base[victim].alloc_seq) victim = e;
  }
  const unsigned victim_way = base[victim].way;
  assert(victim_way != way);
  assert(cache().meta(set, victim_way).dirty);
  ++entry_evictions_;
  return ForcedWriteback{set, victim_way, cache().line_addr(set, victim_way)};
}

void SharedEccArrayScheme::on_write_applied(u64 set, unsigned way,
                                            u64 word_mask) {
  encode_parity(set, way, word_mask);
  assert(cache().meta(set, way).dirty);
  EccEntry* e = find_entry(set, way);
  assert(e != nullptr && "before_dirty must have allocated an entry");
  const unsigned idx = static_cast<unsigned>(e - (entries_.data() + set * entries_per_set_));
  u64* check = entry_check(set, idx);
  const auto data = cache().data(set, way);
  // The entry may have been freshly (re)allocated, in which case its check
  // words are stale for the unwritten words too — recompute the whole line.
  // Detect this by alloc_seq: a fresh allocation has never been encoded.
  // Simpler and always safe: recompute all words whenever the mask does not
  // cover them all. (8 words; cost is negligible.)
  (void)word_mask;
  secded().encode_batch(data, {check, words_});
}

void SharedEccArrayScheme::on_writeback(u64 set, unsigned way) {
  if (EccEntry* e = find_entry(set, way)) e->valid = false;
}

void SharedEccArrayScheme::on_evict(u64 set, unsigned way) {
  if (EccEntry* e = find_entry(set, way)) e->valid = false;
}

ReadCheck SharedEccArrayScheme::check_read(u64 set, unsigned way,
                                           const mem::MemoryStore& memory) {
  auto data = cache().data(set, way);
  if (cache().meta(set, way).dirty) {
    const std::span<u64> check = ecc_words(set, way);
    assert(!check.empty() && "dirty line must own an ECC entry");
    const ecc::LineRepair fix = secded().correct_line(data, check);
    // Keep the parity bits consistent with the repaired words.
    encode_parity(set, way, fix.corrected_mask);
    return ecc_read_check(fix);
  }

  // Clean line: parity only; any detected error is repaired by re-fetch.
  ReadCheck out;
  const u64* par = parity_.data() + line_slot(set, way) * words_;
  out.words_detected =
      popcount64(parity_codec().mismatch_mask(data, {par, words_}));
  if (out.words_detected > 0) {
    memory.read_line(cache().line_addr(set, way), data);
    encode_parity(set, way, ~u64{0});
    out.outcome = ReadOutcome::kRefetched;
  }
  return out;
}

std::span<u64> SharedEccArrayScheme::parity_words(u64 set, unsigned way) {
  return {parity_.data() + line_slot(set, way) * words_, words_};
}

std::span<u64> SharedEccArrayScheme::ecc_words(u64 set, unsigned way) {
  EccEntry* e = find_entry(set, way);
  if (e == nullptr) return {};
  const unsigned idx =
      static_cast<unsigned>(e - (entries_.data() + set * entries_per_set_));
  return {entry_check(set, idx), words_};
}

int SharedEccArrayScheme::entry_of(u64 set, unsigned way) const {
  const EccEntry* base = entries_.data() + set * entries_per_set_;
  for (unsigned e = 0; e < entries_per_set_; ++e) {
    if (base[e].valid && base[e].way == way) return static_cast<int>(e);
  }
  return -1;
}

}  // namespace aeep::protect
