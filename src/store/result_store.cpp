#include "store/result_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

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

u32 le32(const u8* p) {
  return u32{p[0]} | u32{p[1]} << 8 | u32{p[2]} << 16 | u32{p[3]} << 24;
}

/// The payload length of the record at `off` in `seg` if the whole record
/// checks out there (its tag, a length that fits the bytes left, its CRC);
/// 0 if not.
u32 whole_record_at(const std::vector<u8>& seg, u64 off) {
  if (seg.size() - off < 9 || seg[off] != kRecordTag) return 0;
  const u32 len = le32(&seg[off + 1]);
  if (len < 8 || len > kMaxPayloadBytes || len > seg.size() - off - 9)
    return 0;
  return trace::crc32(&seg[off + 9], len) == le32(&seg[off + 5]) ? len : 0;
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
  config_.max_entries = std::max<std::size_t>(1, config_.max_entries);
  segment_path_ = segment_path(config_.dir);

  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec)
    throw trace::TraceError(trace::TraceErrorKind::kIo,
                            "cannot create store directory " + config_.dir +
                                ": " + ec.message());

  const MutexLock lock(mutex_);
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
  std::vector<u8> seg(reader_->size());
  reader_->read_bytes(seg.data(), seg.size());
  if (seg.size() < kHeaderBytes)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store segment too short for a header: " +
                                segment_path_);
  if (std::memcmp(seg.data(), kMagic, 4) != 0 ||
      le32(&seg[4]) != kSegmentVersion)
    throw trace::TraceError(
        trace::TraceErrorKind::kCorrupt,
        "not a store segment (bad magic/version): " + segment_path_);

  u64 end = seg.size();
  for (u64 off = kHeaderBytes; off < end;) {
    if (const u32 len = whole_record_at(seg, off)) {
      index_record_locked(trace::load_le64(&seg[off + 9]), off, len);
      ++stats_.recovered_records;
      off += record_bytes(len);
      continue;
    }
    // The record at `off` does not check out, whether its payload or its
    // framing is damaged: resume at the next whole record. Its bytes stay
    // in the segment until gc().
    ++stats_.dropped_records;
    u64 next = off + 1;
    while (next < end && whole_record_at(seg, next) == 0) ++next;
    if (next < end) {
      off = next;
      continue;
    }
    // No whole record follows: a record cut short by a crash mid-append.
    // Drop only this torn tail; every record before it survives.
    std::error_code ec;
    std::filesystem::resize_file(segment_path_, off, ec);
    if (ec)
      throw trace::TraceError(trace::TraceErrorKind::kIo,
                              "cannot truncate torn store segment " +
                                  segment_path_ + ": " + ec.message());
    // The reader's buffer may still hold the cut bytes, where appends go.
    reader_ = std::make_unique<trace::FileReader>(segment_path_);
    end = off;
  }
  segment_bytes_ = end;
}

bool ResultStore::index_record_locked(u64 key, u64 offset,
                                      u32 payload_bytes) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second.offset = offset;
    it->second.payload_bytes = payload_bytes;
    lru_.splice(lru_.end(), lru_, it->second.lru);
    return true;
  }
  if (index_.size() >= config_.max_entries) evict_lru_locked();
  index_.emplace(key, Entry{offset, payload_bytes,
                            lru_.insert(lru_.end(), key)});
  return false;
}

void ResultStore::evict_lru_locked() {
  index_.erase(lru_.front());
  lru_.pop_front();
  ++stats_.evictions;
}

std::vector<u8> ResultStore::read_payload_locked(u64 key, const Entry& e) {
  reader_->seek(e.offset);
  const u8 tag = reader_->read_u8();
  const u32 len = reader_->read_u32();
  const u32 crc = reader_->read_u32();
  if (tag != kRecordTag || len != e.payload_bytes)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store record header mismatch: " + segment_path_);
  std::vector<u8> payload(len);
  reader_->read_bytes(payload.data(), len);
  if (trace::crc32(payload) != crc)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store record CRC mismatch: " + segment_path_);
  if (trace::load_le64(payload.data()) != key)
    throw trace::TraceError(trace::TraceErrorKind::kCorrupt,
                            "store record key mismatch: " + segment_path_);
  return payload;
}

void ResultStore::drop_corrupt_locked(
    std::unordered_map<u64, Entry>::iterator it) {
  lru_.erase(it->second.lru);
  index_.erase(it);
  ++stats_.corrupt_payloads;
}

void ResultStore::open_handles_locked() {
  reader_ = std::make_unique<trace::FileReader>(segment_path_);
  writer_ = std::make_unique<trace::FileWriter>(segment_path_,
                                                /*append=*/true);
}

std::optional<JsonValue> ResultStore::lookup(const Digest& key) {
  const MutexLock lock(mutex_);
  const auto it = index_.find(key.value);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::optional<JsonValue> doc;
  try {
    const std::vector<u8> payload = read_payload_locked(key.value, it->second);
    doc = json_parse(std::string(
        reinterpret_cast<const char*>(payload.data()) + 8, payload.size() - 8));
  } catch (const trace::TraceError&) {
    // Unreadable bytes are dropped below, like unparsable ones.
  }
  if (!doc) {
    // The entry points at bytes that no longer check out (disk fault,
    // external tampering): drop it and miss, never return bad data.
    drop_corrupt_locked(it);
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru);
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
  if (index_record_locked(key.value, offset, static_cast<u32>(bytes.size())))
    ++stats_.updates;
  else
    ++stats_.inserts;
}

std::vector<ResultStore::EntryInfo> ResultStore::entries() const {
  const MutexLock lock(mutex_);
  std::vector<EntryInfo> out;
  out.reserve(lru_.size());
  for (const u64 key : lru_)
    out.push_back({Digest{key}, index_.at(key).payload_bytes});
  return out;
}

std::size_t ResultStore::size() const {
  const MutexLock lock(mutex_);
  return index_.size();
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
  for (const auto& [key, e] : index_)
    live_bytes += record_bytes(e.payload_bytes);

  u64 evicted = 0;
  // An emptied store keeps just the header.
  while (live_bytes > max_bytes && !lru_.empty()) {
    live_bytes -= record_bytes(index_.at(lru_.front()).payload_bytes);
    evict_lru_locked();
    ++evicted;
  }

  // Survivors in ascending segment offset: compaction preserves the
  // on-disk record order, so two stores with the same live set compact to
  // byte-identical segments.
  std::vector<std::pair<u64, u64>> live;  ///< (offset, key)
  live.reserve(index_.size());
  for (const auto& [key, e] : index_) live.emplace_back(e.offset, key);
  std::sort(live.begin(), live.end());

  // The index keeps pointing into the old segment until the rename lands:
  // new offsets are collected here and applied after it.
  std::vector<std::pair<u64, u64>> moved;  ///< (key, compacted offset)
  moved.reserve(live.size());
  const std::string tmp_path = segment_path_ + ".tmp";
  try {
    trace::FileWriter tmp(tmp_path);
    tmp.write_bytes(kMagic, 4);
    tmp.write_u32(kSegmentVersion);
    for (const auto& [offset, key] : live) {
      const auto it = index_.find(key);
      std::vector<u8> payload;
      try {
        payload = read_payload_locked(key, it->second);
      } catch (const trace::TraceError&) {
        drop_corrupt_locked(it);  // as lookup would; compact the rest
        continue;
      }
      moved.emplace_back(key, tmp.bytes_written());
      tmp.write_u8(kRecordTag);
      tmp.write_u32(static_cast<u32>(payload.size()));
      tmp.write_u32(trace::crc32(payload));
      tmp.write_bytes(payload.data(), payload.size());
    }
    tmp.close();
    live_bytes = tmp.bytes_written();

    // Swap handles around the rename so no stream points at the old inode.
    writer_.reset();
    reader_.reset();
    std::error_code ec;
    std::filesystem::rename(tmp_path, segment_path_, ec);
    if (ec)
      throw trace::TraceError(trace::TraceErrorKind::kIo,
                              "store GC rename failed: " + ec.message());
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    if (!reader_) open_handles_locked();  // the old segment, as it was
    throw;
  }
  open_handles_locked();
  for (const auto& [key, offset] : moved) index_.at(key).offset = offset;
  segment_bytes_ = live_bytes;
  return evicted;
}

}  // namespace aeep::store
