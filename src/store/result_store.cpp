#include "store/result_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bitops.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "trace/error.hpp"

namespace aeep::store {

namespace {

constexpr u8 kRecordTag = 'R';
constexpr u32 kSegmentVersion = 1;
constexpr char kMagic[4] = {'A', 'E', 'S', 'T'};
constexpr u64 kHeaderBytes = 8;  ///< magic + version
/// A payload is one JSON result document — a few KB. Anything near this
/// bound is corruption, not data.
constexpr u32 kMaxPayloadBytes = u32{1} << 24;
/// Probe-table tombstone (kNil is "empty", which stops probes).
constexpr u32 kTomb = ~u32{0} - 1;

u64 key_from_payload(const std::vector<u8>& payload) {
  u64 key = 0;
  for (int i = 0; i < 8; ++i)
    key |= static_cast<u64>(payload[static_cast<std::size_t>(i)]) << (8 * i);
  return key;
}

void put_key(std::vector<u8>& payload, u64 key) {
  for (int i = 0; i < 8; ++i)
    payload.push_back(static_cast<u8>(key >> (8 * i)));
}

}  // namespace

std::string ResultStore::segment_path(const std::string& dir) {
  return dir + "/store.seg";
}

u64 ResultStore::record_bytes(u32 payload_bytes) const {
  return u64{1} + 4 + 4 + payload_bytes;  // tag + length + crc + payload
}

ResultStore::ResultStore(StoreConfig config) : config_(std::move(config)) {
  if (config_.max_entries < 2) config_.max_entries = 2;
  protected_cap_ = std::max<std::size_t>(1, config_.max_entries / 2);
  segment_path_ = segment_path(config_.dir);

  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec)
    throw trace::TraceError(trace::TraceErrorKind::kIo,
                            "cannot create store directory " + config_.dir +
                                ": " + ec.message());

  const MutexLock lock(mutex_);
  slots_.resize(config_.max_entries);
  // Thread every slot onto the free chain (next links double as freelist).
  for (std::size_t i = 0; i < slots_.size(); ++i)
    slots_[i].next = i + 1 < slots_.size() ? static_cast<u32>(i + 1) : kNil;
  free_head_ = 0;
  const std::size_t table_size = static_cast<std::size_t>(
      std::max<u64>(16, ceil_pow2(u64{config_.max_entries} * 2)));
  table_.assign(table_size, kNil);
  table_mask_ = table_size - 1;

  const bool fresh = !std::filesystem::exists(segment_path_) ||
                     std::filesystem::file_size(segment_path_, ec) == 0;
  if (fresh) {
    trace::FileWriter header(segment_path_);
    header.write_bytes(kMagic, 4);
    header.write_u32(kSegmentVersion);
    header.close();
  }
  reader_ = std::make_unique<trace::FileReader>(segment_path_);
  scan_segment_locked();
  writer_ = std::make_unique<trace::FileWriter>(segment_path_,
                                                /*append=*/true);
}

ResultStore::~ResultStore() = default;

void ResultStore::scan_segment_locked() {
  reader_->seek(0);
  char magic[4];
  u32 version = 0;
  try {
    reader_->read_bytes(magic, 4);
    version = reader_->read_u32();
  } catch (const trace::TraceError&) {
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store segment too short for a header: " +
                                segment_path_);
  }
  if (std::memcmp(magic, kMagic, 4) != 0 || version != kSegmentVersion)
    throw trace::TraceError(
        trace::TraceErrorKind::kCorrupt,
        "not a store segment (bad magic/version): " + segment_path_);

  u64 valid_end = kHeaderBytes;
  bool torn = false;
  while (!reader_->at_eof()) {
    const u64 off = reader_->tell();
    try {
      const u8 tag = reader_->read_u8();
      const u32 len = reader_->read_u32();
      const u32 crc = reader_->read_u32();
      if (tag != kRecordTag || len < 8 || len > kMaxPayloadBytes) {
        torn = true;
        break;
      }
      std::vector<u8> payload(len);
      reader_->read_bytes(payload.data(), len);
      if (trace::crc32(payload) != crc) {
        torn = true;
        break;
      }
      index_record_locked(key_from_payload(payload), off, len);
      ++stats_.recovered_records;
      valid_end = off + record_bytes(len);
    } catch (const trace::TraceError&) {
      torn = true;  // record cut short by a crash mid-append
      break;
    }
  }
  if (torn) {
    // Drop only the torn tail; every complete record before it survives.
    std::error_code ec;
    std::filesystem::resize_file(segment_path_, valid_end, ec);
    if (ec)
      throw trace::TraceError(trace::TraceErrorKind::kIo,
                              "cannot truncate torn store segment " +
                                  segment_path_ + ": " + ec.message());
    ++stats_.dropped_records;
    reader_->seek(0);  // re-sync the stream with the shorter file
  }
  segment_bytes_ = valid_end;
}

u32 ResultStore::find_slot_locked(u64 key) const {
  std::size_t idx = static_cast<std::size_t>(key) & table_mask_;
  while (true) {
    const u32 entry = table_[idx];
    if (entry == kNil) return kNil;
    if (entry != kTomb && slots_[entry].key == key) return entry;
    idx = (idx + 1) & table_mask_;
  }
}

void ResultStore::table_insert_locked(u64 key, u32 slot) {
  std::size_t idx = static_cast<std::size_t>(key) & table_mask_;
  while (table_[idx] != kNil && table_[idx] != kTomb)
    idx = (idx + 1) & table_mask_;
  if (table_[idx] == kTomb && tombstones_ > 0) --tombstones_;
  table_[idx] = slot;
}

void ResultStore::table_erase_locked(u64 key) {
  std::size_t idx = static_cast<std::size_t>(key) & table_mask_;
  while (true) {
    const u32 entry = table_[idx];
    if (entry == kNil) return;  // not present
    if (entry != kTomb && slots_[entry].key == key) {
      table_[idx] = kTomb;
      ++tombstones_;
      break;
    }
    idx = (idx + 1) & table_mask_;
  }
  // Tombstone pressure lengthens every probe chain; rebuild the fixed
  // table from the live slots once a quarter of it is tombstones.
  if (tombstones_ > table_.size() / 4) {
    std::fill(table_.begin(), table_.end(), kNil);
    tombstones_ = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].segment != 0)
        table_insert_locked(slots_[i].key, static_cast<u32>(i));
  }
}

void ResultStore::list_push_mru_locked(LruList& list, u32 slot, u8 segment) {
  Slot& s = slots_[slot];
  s.segment = segment;
  s.prev = list.tail;
  s.next = kNil;
  if (list.tail != kNil) slots_[list.tail].next = slot;
  list.tail = slot;
  if (list.head == kNil) list.head = slot;
  ++list.count;
}

void ResultStore::list_unlink_locked(LruList& list, u32 slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) slots_[s.prev].next = s.next;
  else list.head = s.next;
  if (s.next != kNil) slots_[s.next].prev = s.prev;
  else list.tail = s.prev;
  s.prev = s.next = kNil;
  --list.count;
}

void ResultStore::promote_locked(u32 slot) {
  Slot& s = slots_[slot];
  if (s.segment == 1) {
    // Second touch: probationary -> protected MRU.
    list_unlink_locked(probationary_, slot);
    list_push_mru_locked(protected_, slot, 2);
    // Protected is bounded; its LRU falls back to probationary MRU rather
    // than out of the store (it stays one touch away from protection).
    while (protected_.count > protected_cap_) {
      const u32 demoted = protected_.head;
      list_unlink_locked(protected_, demoted);
      list_push_mru_locked(probationary_, demoted, 1);
    }
  } else {
    // Already protected: refresh recency.
    list_unlink_locked(protected_, slot);
    list_push_mru_locked(protected_, slot, 2);
  }
}

u32 ResultStore::evict_one_locked() {
  u32 victim = probationary_.head;
  if (victim != kNil) {
    list_unlink_locked(probationary_, victim);
  } else {
    victim = protected_.head;
    if (victim == kNil) return kNil;
    list_unlink_locked(protected_, victim);
  }
  table_erase_locked(slots_[victim].key);
  slots_[victim].segment = 0;
  slots_[victim].next = free_head_;
  free_head_ = victim;
  ++stats_.evictions;
  return victim;
}

void ResultStore::drop_slot_locked(u32 slot) {
  Slot& s = slots_[slot];
  list_unlink_locked(s.segment == 2 ? protected_ : probationary_, slot);
  table_erase_locked(s.key);
  s.segment = 0;
  s.next = free_head_;
  free_head_ = slot;
}

void ResultStore::index_record_locked(u64 key, u64 offset, u32 payload_bytes) {
  const u32 existing = find_slot_locked(key);
  if (existing != kNil) {
    Slot& s = slots_[existing];
    s.offset = offset;
    s.payload_bytes = payload_bytes;
    // Refresh recency within its current segment — an update is a write,
    // not the second read that earns protection.
    LruList& list = s.segment == 2 ? protected_ : probationary_;
    const u8 seg = s.segment;
    list_unlink_locked(list, existing);
    list_push_mru_locked(list, existing, seg);
    return;
  }
  if (free_head_ == kNil) evict_one_locked();
  const u32 slot = free_head_;
  free_head_ = slots_[slot].next;
  Slot& s = slots_[slot];
  s.key = key;
  s.offset = offset;
  s.payload_bytes = payload_bytes;
  s.prev = s.next = kNil;
  list_push_mru_locked(probationary_, slot, 1);
  table_insert_locked(key, slot);
}

std::vector<u8> ResultStore::read_payload_locked(u64 offset,
                                                 u32 payload_bytes) {
  reader_->seek(offset);
  const u8 tag = reader_->read_u8();
  const u32 len = reader_->read_u32();
  const u32 crc = reader_->read_u32();
  if (tag != kRecordTag || len != payload_bytes)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store record header mismatch: " + segment_path_);
  std::vector<u8> payload(len);
  reader_->read_bytes(payload.data(), len);
  if (trace::crc32(payload) != crc)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store record CRC mismatch: " + segment_path_);
  return payload;
}

std::optional<JsonValue> ResultStore::lookup(const Digest& key) {
  const MutexLock lock(mutex_);
  const u32 slot = find_slot_locked(key.value);
  if (slot == kNil) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::vector<u8> payload;
  try {
    payload = read_payload_locked(slots_[slot].offset,
                                  slots_[slot].payload_bytes);
  } catch (const trace::TraceError&) {
    // The entry points at bytes that no longer check out (disk fault,
    // external tampering): drop it and miss, never return bad data.
    drop_slot_locked(slot);
    ++stats_.corrupt_payloads;
    ++stats_.misses;
    return std::nullopt;
  }
  const std::string text(reinterpret_cast<const char*>(payload.data()) + 8,
                         payload.size() - 8);
  std::optional<JsonValue> doc = json_parse(text);
  if (!doc) {
    drop_slot_locked(slot);
    ++stats_.corrupt_payloads;
    ++stats_.misses;
    return std::nullopt;
  }
  promote_locked(slot);
  ++stats_.hits;
  return doc;
}

void ResultStore::insert(const Digest& key, const JsonValue& payload) {
  const std::string text = payload.dump(0);
  std::vector<u8> bytes;
  bytes.reserve(8 + text.size());
  put_key(bytes, key.value);
  bytes.insert(bytes.end(), text.begin(), text.end());
  if (bytes.size() > kMaxPayloadBytes)
    throw trace::TraceError(trace::TraceErrorKind::kIo,
                            "store payload too large");

  const MutexLock lock(mutex_);
  const u64 offset = segment_bytes_;
  try {
    writer_->write_u8(kRecordTag);
    writer_->write_u32(static_cast<u32>(bytes.size()));
    writer_->write_u32(trace::crc32(bytes));
    writer_->write_bytes(bytes.data(), bytes.size());
    writer_->flush();  // a reader (or a crash) must see a whole record
  } catch (const trace::TraceError&) {
    // Part of the record may have reached the file, and more may still sit
    // in the writer's buffer. Close the writer, then cut the segment back
    // to its last whole record, so the next record lands at segment_bytes_
    // where the index will look for it.
    writer_.reset();
    std::error_code ec;
    std::filesystem::resize_file(segment_path_, segment_bytes_, ec);
    writer_ = std::make_unique<trace::FileWriter>(segment_path_,
                                                  /*append=*/true);
    if (ec)
      throw trace::TraceError(trace::TraceErrorKind::kIo,
                              "cannot truncate torn store record in " +
                                  segment_path_ + ": " + ec.message());
    throw;
  }
  segment_bytes_ += record_bytes(static_cast<u32>(bytes.size()));

  const bool existed = find_slot_locked(key.value) != kNil;
  index_record_locked(key.value, offset, static_cast<u32>(bytes.size()));
  if (existed) ++stats_.updates;
  else ++stats_.inserts;
}

std::vector<ResultStore::EntryInfo> ResultStore::entries() const {
  const MutexLock lock(mutex_);
  std::vector<EntryInfo> out;
  out.reserve(probationary_.count + protected_.count);
  for (u32 i = probationary_.head; i != kNil; i = slots_[i].next)
    out.push_back({Digest{slots_[i].key}, slots_[i].payload_bytes, false});
  for (u32 i = protected_.head; i != kNil; i = slots_[i].next)
    out.push_back({Digest{slots_[i].key}, slots_[i].payload_bytes, true});
  return out;
}

std::size_t ResultStore::size() const {
  const MutexLock lock(mutex_);
  return probationary_.count + protected_.count;
}

u64 ResultStore::disk_bytes() const {
  const MutexLock lock(mutex_);
  return segment_bytes_;
}

StoreStats ResultStore::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

void ResultStore::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = StoreStats{};
}

u64 ResultStore::gc(u64 max_bytes) {
  static metrics::Histogram& gc_us =
      metrics::Registry::instance().histogram("store.gc_us");
  const metrics::ScopedTimer span(gc_us);
  const MutexLock lock(mutex_);

  u64 live_bytes = kHeaderBytes;
  for (const Slot& s : slots_)
    if (s.segment != 0) live_bytes += record_bytes(s.payload_bytes);

  u64 evicted = 0;
  while (live_bytes > max_bytes) {
    const u32 victim = probationary_.head != kNil ? probationary_.head
                                                  : protected_.head;
    if (victim == kNil) break;  // empty store: just the header remains
    live_bytes -= record_bytes(slots_[victim].payload_bytes);
    evict_one_locked();
    ++evicted;
  }

  // Survivors in ascending segment offset: compaction preserves the
  // on-disk record order, so two stores with the same live set compact to
  // byte-identical segments.
  std::vector<u32> live;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].segment != 0) live.push_back(static_cast<u32>(i));
  std::sort(live.begin(), live.end(), [&](u32 a, u32 b) {
    return slots_[a].offset < slots_[b].offset;
  });

  const std::string tmp_path = segment_path_ + ".tmp";
  {
    trace::FileWriter tmp(tmp_path);
    tmp.write_bytes(kMagic, 4);
    tmp.write_u32(kSegmentVersion);
    for (const u32 slot : live) {
      const std::vector<u8> payload = read_payload_locked(
          slots_[slot].offset, slots_[slot].payload_bytes);
      const u64 rec_off = tmp.bytes_written();
      tmp.write_u8(kRecordTag);
      tmp.write_u32(static_cast<u32>(payload.size()));
      tmp.write_u32(trace::crc32(payload));
      tmp.write_bytes(payload.data(), payload.size());
      slots_[slot].offset = rec_off;
    }
    tmp.close();
  }

  // Swap handles around the rename so no stream points at the old inode.
  writer_.reset();
  reader_.reset();
  std::error_code ec;
  std::filesystem::rename(tmp_path, segment_path_, ec);
  if (ec)
    throw trace::TraceError(trace::TraceErrorKind::kIo,
                            "store GC rename failed: " + ec.message());
  reader_ = std::make_unique<trace::FileReader>(segment_path_);
  writer_ = std::make_unique<trace::FileWriter>(segment_path_,
                                                /*append=*/true);
  segment_bytes_ = live_bytes;
  return evicted;
}

}  // namespace aeep::store
