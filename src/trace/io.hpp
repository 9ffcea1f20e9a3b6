// Low-level checked binary I/O for the trace subsystem.
//
// This file (with io.cpp) is the repo's single home for raw fread/fwrite:
// lint rule 5 bans them everywhere else so that every binary read in the
// tree goes through these helpers and gets short-read / short-write
// detection and typed TraceError failures for free. The varint and CRC32
// routines used by the chunk codec live here too so they can be unit-tested
// in isolation.
#pragma once

#include <bit>
#include <cstdio>
#include <cstring>
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

/// Throws the TraceError(kCorrupt) of a varint whose 10th byte carries bits
/// past 64 or continues.
[[noreturn]] void throw_varint_overflow();

/// The 8 bytes at `p` as a little-endian word.
inline u64 load_le64(const u8* p) {
  u64 v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (unsigned i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  }
  return v;
}

/// The low 7 bits of each byte of `x`, packed into the low 56 bits.
constexpr u64 pack7(u64 x) {
  x &= 0x7F7F7F7F7F7F7F7Full;
  x = ((x & 0x7F007F007F007F00ull) >> 1) | (x & 0x007F007F007F007Full);
  x = ((x & 0x3FFF00003FFF0000ull) >> 2) | (x & 0x00003FFF00003FFFull);
  return ((x & 0x0FFFFFFF00000000ull) >> 4) | (x & 0x000000000FFFFFFFull);
}

/// Decode one varint at `p` and advance `p` past it; the caller guarantees
/// 10 readable bytes from `p`, so no byte is checked against an end. With
/// 10 bytes in hand the one possible error is an overflowing 10th byte,
/// which throws as get_varint_checked does.
///
/// A one-byte varint (most tick deltas, fill offsets and word masks) takes
/// a branch the CPU predicts, so the next varint's address need not wait
/// for this one's bytes. A longer one decodes its first 8 bytes as one
/// word, without a branch on its length, and then bytes 9 and 10 alone:
/// random 64-bit words (a drain's data) are 9 or 10 bytes long about
/// equally often.
inline u64 get_varint_unbounded(const u8*& p) {
  if (p[0] < 0x80) return *p++;
  const u64 x = load_le64(p);
  // Bit 7 of every byte that ends a varint.
  const u64 stops = ~x & 0x8080808080808080ull;
  if (stops != 0) {
    p += std::countr_zero(stops) / 8 + 1;
    return pack7(x & (stops ^ (stops - 1)));  // the bytes up to the first stop
  }
  const u64 ninth = p[8];
  const u64 tenth = p[9];
  const u64 has_tenth = ninth >> 7;
  if ((has_tenth & static_cast<u64>(tenth > 1)) != 0) throw_varint_overflow();
  p += 9 + has_tenth;
  return pack7(x) | (ninth & 0x7F) << 56 | (tenth & has_tenth) << 63;
}

/// Decode one varint from [pos, end). Advances `pos` past it. Throws
/// TraceError(kCorrupt) on overlong/overflowing encodings and
/// TraceError(kTruncated) when the buffer ends mid-varint.
inline u64 get_varint(const std::vector<u8>& buf, std::size_t& pos) {
  // With 10 bytes left no varint can run off the end: decode it unchecked.
  // Only the buffer's last 9 bytes take the checked loop.
  if (buf.size() >= 10 && pos <= buf.size() - 10) {
    const u8* p = buf.data() + pos;
    const u64 v = get_varint_unbounded(p);
    pos = static_cast<std::size_t>(p - buf.data());
    return v;
  }
  return get_varint_checked(buf, pos);
}

// --- CRC32 (IEEE 802.3 polynomial, as used by zip/png) ---------------------

/// Slicing-by-8: eight bytes per step through eight 256-entry tables, with
/// bytes assembled the same way on any host. The portable kernel.
u32 crc32_table(const u8* data, std::size_t n);

/// Whether crc32() folds with carry-less multiply here: an x86 CPU that
/// reports PCLMULQDQ and SSE4.1, checked once per process.
bool crc32_folds_clmul();

/// The CRC-32 of [data, data + n). Where crc32_folds_clmul(), 16-byte
/// blocks fold by PCLMULQDQ, 64 bytes per step, and crc32_table takes the
/// last 0-15 bytes and any input under 64 bytes; elsewhere crc32_table
/// does it all. Both give the same value.
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
