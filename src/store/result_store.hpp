// Content-addressed, disk-persistent result store.
//
// In memory: one hash map from key to the entry's record, and one list of
// keys in LRU order. A lookup hit or an update makes an entry most
// recently used; an insert into a full index evicts the least recently
// used entry. Recency is not persisted: a reopen lists entries in record
// order.
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
// index by one rule: a record that does not check out (a bad tag, a length
// past the bytes left, a CRC mismatch, whether the payload or the length
// field is damaged) costs itself, as the scan resumes at the next offset
// where a whole record does. Only when none follows is it a torn tail (a
// record cut short by a crash), truncated without touching anything before
// it. An updated key is appended again — the scan's
// later-record-wins rule makes the old record dead. A record is served
// only if its CRC and its key prefix check out. gc() compacts live records
// into a temp file and renames it over the segment (write-temp-then-rename,
// so a crash mid-GC leaves the old segment intact), evicting LRU-first
// until the segment fits the byte budget and dropping any live record that
// no longer checks out.
#pragma once

#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// Entries dropped because their record no longer checks out (CRC or
  /// key mismatch) when a lookup or gc() reads it.
  u64 corrupt_payloads = 0;
  u64 recovered_records = 0; ///< records indexed by the reopen scan
  /// Records the reopen scan dropped: one for each stretch it skipped to
  /// the next whole record, and one for a torn tail truncated away.
  u64 dropped_records = 0;
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

  /// Payload stored under `key`, making the entry most recently used.
  /// nullopt = miss.
  std::optional<JsonValue> lookup(const Digest& key) AEEP_EXCLUDES(mutex_);

  /// Append `key` -> `payload`, durable before return. An existing key is
  /// updated in place (index-wise; the segment grows until gc()) and
  /// becomes most recently used; a new key into a full index evicts the
  /// least recently used entry. A failed write throws and leaves the
  /// segment as it was before the call.
  void insert(const Digest& key, const JsonValue& payload)
      AEEP_EXCLUDES(mutex_);

  /// One live entry, in eviction order: least recently used first.
  /// aeep_store ls prints this order so "first line = next evicted".
  struct EntryInfo {
    Digest key{};
    u32 payload_bytes = 0;
  };
  std::vector<EntryInfo> entries() const AEEP_EXCLUDES(mutex_);

  std::size_t size() const AEEP_EXCLUDES(mutex_);       ///< live entries
  u64 disk_bytes() const AEEP_EXCLUDES(mutex_);         ///< segment size

  /// Compact the segment to the live entries, evicting least recently used
  /// first until the compacted segment would fit `max_bytes`. Returns the
  /// number of entries evicted. Deterministic: the same store state and
  /// budget always evict the same keys. A live record that fails its check
  /// is dropped (counted in corrupt_payloads) and the rest are compacted;
  /// a failed write or rename throws, removes the temp file and leaves the
  /// segment and every surviving entry's offset as they were.
  u64 gc(u64 max_bytes) AEEP_EXCLUDES(mutex_);

  StoreStats stats() const AEEP_EXCLUDES(mutex_);
  void reset_stats() AEEP_EXCLUDES(mutex_);

  const std::string& dir() const { return config_.dir; }
  static std::string segment_path(const std::string& dir);

 private:
  /// One live index entry: where its record starts and its place in lru_.
  struct Entry {
    u64 offset = 0;  ///< record start in the segment file
    u32 payload_bytes = 0;
    std::list<u64>::iterator lru;
  };

  void scan_segment_locked() AEEP_REQUIRES(mutex_);
  /// Index a record at `offset` (scan / insert paths share it) as the most
  /// recently used entry, evicting the LRU entry from a full index.
  /// Returns whether `key` was already indexed.
  bool index_record_locked(u64 key, u64 offset, u32 payload_bytes)
      AEEP_REQUIRES(mutex_);
  void evict_lru_locked() AEEP_REQUIRES(mutex_);
  /// The payload of `key`'s record at `e.offset`; throws a TraceError
  /// unless the framing, the CRC and the key prefix all check out.
  std::vector<u8> read_payload_locked(u64 key, const Entry& e)
      AEEP_REQUIRES(mutex_);
  /// Drop an entry whose record failed its check.
  void drop_corrupt_locked(std::unordered_map<u64, Entry>::iterator it)
      AEEP_REQUIRES(mutex_);
  /// Re-open the reader and the appending writer on the segment.
  void open_handles_locked() AEEP_REQUIRES(mutex_);
  u64 record_bytes(u32 payload_bytes) const;

  StoreConfig config_;
  std::string segment_path_;

  mutable aeep::Mutex mutex_;
  std::unordered_map<u64, Entry> index_ AEEP_GUARDED_BY(mutex_);
  std::list<u64> lru_ AEEP_GUARDED_BY(mutex_);  ///< LRU at front, MRU at back
  u64 segment_bytes_ AEEP_GUARDED_BY(mutex_) = 0;  ///< file size incl. dead
  std::unique_ptr<trace::FileWriter> writer_ AEEP_GUARDED_BY(mutex_);
  std::unique_ptr<trace::FileReader> reader_ AEEP_GUARDED_BY(mutex_);
  StoreStats stats_ AEEP_GUARDED_BY(mutex_){};
};

}  // namespace aeep::store
