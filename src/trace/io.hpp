// Low-level checked binary I/O for the trace subsystem.
//
// This file (with io.cpp) is the repo's single home for raw fread/fwrite:
// lint rule 5 bans them everywhere else so that every binary read in the
// tree goes through these helpers and gets short-read / short-write
// detection and typed TraceError failures for free. The varint and CRC32
// routines used by the chunk codec live here too so they can be unit-tested
// in isolation.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/error.hpp"

namespace aeep::trace {

// --- Varints ---------------------------------------------------------------

/// Append `v` to `out` as a base-128 varint (LEB128, 1-10 bytes).
void put_varint(std::vector<u8>& out, u64 v);

/// Zigzag-fold a signed delta so small magnitudes encode small.
constexpr u64 zigzag(i64 v) {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}
constexpr i64 unzigzag(u64 v) {
  return static_cast<i64>((v >> 1) ^ (~(v & 1) + 1));
}

/// get_varint's bounds-checked loop: every byte is checked against the end
/// of `buf`, and the 10th byte against 64-bit overflow.
u64 get_varint_checked(const std::vector<u8>& buf, std::size_t& pos);

/// Decode one varint from [pos, end). Advances `pos` past it. Throws
/// TraceError(kCorrupt) on overlong/overflowing encodings and
/// TraceError(kTruncated) when the buffer ends mid-varint.
inline u64 get_varint(const std::vector<u8>& buf, std::size_t& pos) {
  // With 10 bytes left no varint can run off the end, and its first 9
  // bytes carry 63 bits, which cannot overflow: decode them unchecked.
  // A 10-byte varint, the buffer tail and every error take the checked loop.
  if (buf.size() >= 10 && pos <= buf.size() - 10) {
    const u8* p = buf.data() + pos;
    u64 v = 0;
    for (unsigned i = 0; i < 9; ++i) {
      v |= static_cast<u64>(p[i] & 0x7F) << (7 * i);
      if ((p[i] & 0x80) == 0) {
        pos += i + 1;
        return v;
      }
    }
  }
  return get_varint_checked(buf, pos);
}

// --- CRC32 (IEEE 802.3 polynomial, as used by zip/png) ---------------------

/// Slicing-by-8: eight bytes per step through eight 256-entry tables, with
/// bytes assembled the same way on any host.
u32 crc32(const u8* data, std::size_t n);
inline u32 crc32(const std::vector<u8>& v) { return crc32(v.data(), v.size()); }

// --- Checked files ---------------------------------------------------------

/// Write-only binary file; every write is verified complete.
class FileWriter {
 public:
  /// `append` opens in "ab" mode — the result store's segment file grows
  /// record by record across process lifetimes; truncating it on open
  /// would throw the cache away.
  explicit FileWriter(const std::string& path, bool append = false);
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  void write_bytes(const void* data, std::size_t n);
  void write_u8(u8 v);
  void write_u32(u32 v);  ///< little-endian

  /// Push buffered bytes to the OS so a reader opening (or seeking) the
  /// same path observes everything written so far. Throws on I/O error.
  void flush();

  /// Flush and close; further writes are a logic error. Safe to call twice.
  void close();

  u64 bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_;
  u64 bytes_ = 0;
};

/// Read-only binary file with explicit EOF handling: `read_bytes` throws
/// kTruncated on a short read, `at_eof()` probes for a clean end between
/// structures. It counts the bytes it reads, so `tell()` and `remaining()`
/// cost no system call.
class FileReader {
 public:
  explicit FileReader(const std::string& path);
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  void read_bytes(void* out, std::size_t n);
  u8 read_u8();
  u32 read_u32();  ///< little-endian

  /// True iff the next read would hit end-of-file.
  bool at_eof();

  /// Total file size in bytes (cached on first call).
  u64 size();

  /// Current read offset from the start of the file.
  u64 tell() const { return offset_; }

  /// Bytes between the read offset and the end of the file as size() saw
  /// it: the most a length field read from the file can honestly claim.
  u64 remaining() {
    const u64 end = size();
    return end > offset_ ? end - offset_ : 0;
  }

  /// Reposition to an absolute byte offset (clears a sticky EOF).
  void seek(u64 offset);

  /// CRC64 of the entire file contents, computed once per FileReader and
  /// cached — ReplayDriver, validate and the result store all need the
  /// same digest and must not each re-read the trace to get it. The read
  /// position is preserved across the call.
  u64 whole_file_digest();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_;
  u64 offset_ = 0;
  bool size_known_ = false;
  u64 size_ = 0;
  bool digest_known_ = false;
  u64 digest_ = 0;
};

/// Process-wide memoised whole-file CRC64. Trace files are immutable
/// inputs, so one digest per path per process is sound; a path whose
/// contents change mid-run (nothing in the tree does that) would need a
/// fresh FileReader::whole_file_digest() instead.
u64 file_digest(const std::string& path);

}  // namespace aeep::trace
