// The paper's parity + ECC protection (§3.1 and §3.3, Figure 2): parity
// over every line plus a single ECC array shared by all ways, with
// `entries_per_set` ECC entries per cache set. The paper evaluates k = 1
// ("all cache lines belonging to the same set share an ECC entry");
// k = ways is §3.1's non-uniform scheme, where every way of a set may be
// dirty at once and no write-back is ever forced (SchemeKind::kNonUniform
// builds that point).
//
// Invariant enforced here: a line may be dirty only while it owns an ECC
// entry, so at most `entries_per_set` lines per set are dirty. A write that
// needs an entry in a full set evicts another entry, which forces an
// immediate write-back of the entry's (dirty) line — the paper's ECC-WB
// traffic. The paper's k=1 identification trick ("the cache line with its
// dirty bit 1 is the corresponding cache line") generalises: each entry
// records its way explicitly, which is what the dirty bit encodes for k=1.
//
// Re-encode rule: a write refreshes the parity of the words it touched. A
// freshly allocated entry holds stale check bits for every word, so its
// first write encodes the whole line; an entry the line already owns
// re-encodes only the touched words. Re-encoding an untouched word would
// launder an uncorrectable error there into valid-looking data.
#pragma once

#include <vector>

#include "protect/scheme.hpp"

namespace aeep::protect {

class SharedEccArrayScheme : public ProtectionScheme {
 public:
  SharedEccArrayScheme(cache::Cache& cache, unsigned entries_per_set = 1);

  std::string name() const override;

  void on_fill(u64 set, unsigned way) override;
  std::optional<ForcedWriteback> before_dirty(u64 set, unsigned way) override;
  void on_write_applied(u64 set, unsigned way, u64 word_mask) override;
  void on_writeback(u64 set, unsigned way) override;
  void on_evict(u64 set, unsigned way) override;

  ReadCheck check_read(u64 set, unsigned way,
                       const mem::MemoryStore& memory) override;

  std::span<u8> parity_words(u64 set, unsigned way) override;
  std::span<u8> ecc_words(u64 set, unsigned way) override;

  void reset_metrics() override { entry_evictions_ = 0; }

  unsigned entries_per_set() const { return entries_per_set_; }
  u64 ecc_entry_evictions() const { return entry_evictions_; }

  /// Debug/property-test hook: the ECC entry index serving (set, way), or
  /// -1 if the line holds none.
  int entry_of(u64 set, unsigned way) const;

 private:
  struct EccEntry {
    u64 alloc_seq = 0;  ///< for oldest-first eviction among k > 1 entries
    unsigned way = 0;
    bool valid = false;
    bool encoded = false;  ///< check bytes cover the whole line
  };
  // kNonUniform keeps one entry per line: hold the table to 16 B an entry.
  static_assert(sizeof(EccEntry) == 16);

  void encode_parity(u64 set, unsigned way, u64 word_mask);
  EccEntry* find_entry(u64 set, unsigned way);
  u8* entry_check(const EccEntry* e);

  unsigned words_;
  unsigned entries_per_set_;
  std::vector<u8> parity_;        ///< one byte per data word, all lines
  std::vector<EccEntry> entries_; ///< num_sets * entries_per_set
  std::vector<u8> entry_check_;   ///< one check byte per word, per entry
  u64 alloc_seq_ = 0;
  u64 entry_evictions_ = 0;
};

}  // namespace aeep::protect
