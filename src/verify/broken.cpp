#include "verify/broken.hpp"

namespace aeep::verify {

const char* to_string(BrokenKind k) {
  switch (k) {
    case BrokenKind::kOverCommit: return "over-commit";
    case BrokenKind::kLeakEntry: return "leak-entry";
    case BrokenKind::kStaleParity: return "stale-parity";
  }
  return "?";
}

BrokenSharedEccScheme::BrokenSharedEccScheme(cache::Cache& cache,
                                             BrokenKind kind,
                                             unsigned entries_per_set)
    : SharedEccArrayScheme(cache, entries_per_set), kind_(kind) {}

std::string BrokenSharedEccScheme::name() const {
  return std::string("broken-") + to_string(kind_) + "(" +
         SharedEccArrayScheme::name() + ")";
}

std::optional<protect::ForcedWriteback> BrokenSharedEccScheme::before_dirty(
    u64 set, unsigned way) {
  if (kind_ == BrokenKind::kLeakEntry && entry_of(set, way) < 0) {
    // A leaked entry is owned by a clean line. Once one sits in a full set,
    // the base scheme would nominate an already-clean victim forever (and
    // its victim-is-dirty assert would stop a debug build): refuse the
    // allocation instead, so the controller's forced-write-back loop ends
    // and the corruption persists in plain sight for the auditor.
    unsigned owned = 0;
    bool leaked = false;
    for (unsigned w = 0; w < cache().geometry().ways; ++w) {
      if (entry_of(set, w) < 0) continue;
      ++owned;
      leaked = leaked || !cache().meta(set, w).dirty;
    }
    if (leaked && owned == entries_per_set()) return std::nullopt;
  }
  auto fw = SharedEccArrayScheme::before_dirty(set, way);
  // The over-commit bug: never force the eviction; the caller's line goes
  // dirty without ever receiving an ECC entry.
  if (kind_ == BrokenKind::kOverCommit && fw) return std::nullopt;
  return fw;
}

void BrokenSharedEccScheme::on_write_applied(u64 set, unsigned way,
                                             u64 word_mask) {
  // Both bug modes above can leave a dirty line without an entry; the base
  // implementation would dereference the missing entry, so skip the ECC
  // refresh exactly as the buggy hardware would (no entry, nowhere to
  // write check bits).
  if (entry_of(set, way) < 0) return;
  SharedEccArrayScheme::on_write_applied(set, way, word_mask);
  if (kind_ == BrokenKind::kStaleParity) {
    // The bug: the parity refresh writes the wrong word — model it as a
    // single stale parity bit on the first written word.
    auto par = parity_words(set, way);
    if (!par.empty()) par[0] ^= 1;
  }
}

void BrokenSharedEccScheme::on_writeback(u64 set, unsigned way) {
  if (kind_ == BrokenKind::kLeakEntry) return;  // the bug: entry never freed
  SharedEccArrayScheme::on_writeback(set, way);
}

std::function<std::unique_ptr<protect::ProtectionScheme>(cache::Cache&)>
broken_scheme_factory(BrokenKind kind, unsigned entries_per_set) {
  return [kind, entries_per_set](cache::Cache& cache) {
    return std::make_unique<BrokenSharedEccScheme>(cache, kind,
                                                   entries_per_set);
  };
}

}  // namespace aeep::verify
