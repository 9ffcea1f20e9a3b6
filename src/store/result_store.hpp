// Content-addressed, disk-persistent result store.
//
// In memory: an open-addressed, fixed-footprint index (SoA slot arrays +
// a power-of-two probe table sized once at construction — no rehashing,
// no per-entry allocation) fronted by a segmented LRU in the TrustedSSD
// style: a new entry lands on the *probationary* list; its second touch
// promotes it to the *protected* list; when protected grows past half the
// capacity its LRU tail is demoted back to probationary MRU. Scan-like
// workloads (a one-off sweep of new cells) therefore churn only the
// probationary segment and cannot flush the proven-hot protected entries.
//
// On disk: one append-only segment file per store directory,
//
//   header  := magic "AEST" | version u32
//   record  := tag u8 ('R') | payload_bytes u32 | crc32(payload) u32
//              | payload (key u64 LE + JSON bytes)
//
// reusing the trace subsystem's CRC-framed chunk idiom and its checked
// FileReader/FileWriter (short I/O raises typed TraceErrors). Appends are
// flushed record-at-a-time; reopening scans the segment to rebuild the
// index and truncates a torn tail (a record cut short by a crash) without
// touching anything before it. An updated key is appended again — the
// scan's later-record-wins rule makes the old record dead. gc() compacts
// live records into a temp file and renames it over the segment
// (write-temp-then-rename, so a crash mid-GC leaves the old segment
// intact), evicting probationary entries LRU-first until the segment fits
// the byte budget.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "store/digest.hpp"
#include "trace/io.hpp"

namespace aeep::store {

struct StoreConfig {
  std::string dir;               ///< created if missing
  std::size_t max_entries = 4096;  ///< in-memory index capacity
};

/// Counter snapshot (ResultStore::stats / reset_stats).
struct StoreStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 inserts = 0;      ///< new keys appended
  u64 updates = 0;      ///< existing keys re-appended
  u64 evictions = 0;    ///< index-capacity + GC evictions
  u64 corrupt_payloads = 0;  ///< CRC mismatch on a hit read (entry dropped)
  u64 recovered_records = 0; ///< records indexed by the reopen scan
  u64 dropped_records = 0;   ///< torn-tail records truncated on reopen
};

class ResultStore {
 public:
  /// Opens (creating the directory and segment if needed) and rebuilds the
  /// index from disk. Throws trace::TraceError(kIo/kCorrupt) when the
  /// segment exists but is not a store segment.
  explicit ResultStore(StoreConfig config);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Payload stored under `key`, promoting the entry (probationary ->
  /// protected on its second touch). nullopt = miss.
  std::optional<JsonValue> lookup(const Digest& key) AEEP_EXCLUDES(mutex_);

  /// Append `key` -> `payload`, durable before return. An existing key is
  /// updated in place (index-wise; the segment grows until gc()).
  void insert(const Digest& key, const JsonValue& payload)
      AEEP_EXCLUDES(mutex_);

  /// One live entry, in deterministic eviction order: probationary LRU
  /// first, probationary MRU, then protected LRU..MRU. aeep_store ls
  /// prints this order so "first line = next evicted".
  struct EntryInfo {
    Digest key{};
    u32 payload_bytes = 0;
    bool protected_segment = false;
  };
  std::vector<EntryInfo> entries() const AEEP_EXCLUDES(mutex_);

  std::size_t size() const AEEP_EXCLUDES(mutex_);       ///< live entries
  u64 disk_bytes() const AEEP_EXCLUDES(mutex_);         ///< segment size

  /// Compact the segment to the live entries, evicting (probationary LRU
  /// first, then protected LRU) until the compacted segment would fit
  /// `max_bytes`. Returns the number of entries evicted. Deterministic:
  /// the same store state and budget always evict the same keys.
  u64 gc(u64 max_bytes) AEEP_EXCLUDES(mutex_);

  StoreStats stats() const AEEP_EXCLUDES(mutex_);
  void reset_stats() AEEP_EXCLUDES(mutex_);

  const std::string& dir() const { return config_.dir; }
  static std::string segment_path(const std::string& dir);

 private:
  static constexpr u32 kNil = ~u32{0};

  /// One live index entry; slots are recycled through a free list.
  struct Slot {
    u64 key = 0;
    u64 offset = 0;       ///< record start in the segment file
    u32 payload_bytes = 0;
    u8 segment = 0;       ///< 0 = free, 1 = probationary, 2 = protected
    u32 prev = kNil, next = kNil;  ///< intrusive LRU links / free chain
  };

  /// One segment's intrusive list endpoints (LRU at head, MRU at tail).
  struct LruList {
    u32 head = kNil, tail = kNil;
    std::size_t count = 0;
  };

  void scan_segment_locked() AEEP_REQUIRES(mutex_);
  u32 find_slot_locked(u64 key) const AEEP_REQUIRES(mutex_);
  void table_insert_locked(u64 key, u32 slot) AEEP_REQUIRES(mutex_);
  void table_erase_locked(u64 key) AEEP_REQUIRES(mutex_);
  void list_push_mru_locked(LruList& list, u32 slot, u8 segment)
      AEEP_REQUIRES(mutex_);
  void list_unlink_locked(LruList& list, u32 slot) AEEP_REQUIRES(mutex_);
  void promote_locked(u32 slot) AEEP_REQUIRES(mutex_);
  /// Evict the probationary LRU (protected LRU when probationary is
  /// empty). Returns kNil when the store is empty.
  u32 evict_one_locked() AEEP_REQUIRES(mutex_);
  void drop_slot_locked(u32 slot) AEEP_REQUIRES(mutex_);
  /// Index an entry found at `offset` (scan / insert paths share it).
  void index_record_locked(u64 key, u64 offset, u32 payload_bytes)
      AEEP_REQUIRES(mutex_);
  std::vector<u8> read_payload_locked(u64 offset, u32 payload_bytes)
      AEEP_REQUIRES(mutex_);
  u64 record_bytes(u32 payload_bytes) const;

  StoreConfig config_;
  std::string segment_path_;

  mutable aeep::Mutex mutex_;
  std::vector<Slot> slots_ AEEP_GUARDED_BY(mutex_);
  u32 free_head_ AEEP_GUARDED_BY(mutex_) = kNil;
  /// Probe table: slot index, kNil = empty, kTomb = tombstone.
  std::vector<u32> table_ AEEP_GUARDED_BY(mutex_);
  std::size_t table_mask_ AEEP_GUARDED_BY(mutex_) = 0;
  std::size_t tombstones_ AEEP_GUARDED_BY(mutex_) = 0;
  LruList probationary_ AEEP_GUARDED_BY(mutex_);
  LruList protected_ AEEP_GUARDED_BY(mutex_);
  std::size_t protected_cap_ = 0;  ///< fixed at construction
  u64 segment_bytes_ AEEP_GUARDED_BY(mutex_) = 0;  ///< file size incl. dead
  std::unique_ptr<trace::FileWriter> writer_ AEEP_GUARDED_BY(mutex_);
  std::unique_ptr<trace::FileReader> reader_ AEEP_GUARDED_BY(mutex_);
  StoreStats stats_ AEEP_GUARDED_BY(mutex_){};
};

}  // namespace aeep::store
