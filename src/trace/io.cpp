#include "trace/io.hpp"

#include <array>
#include <cstring>
#include <map>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AEEP_CRC32_CLMUL 1
#endif

#include "common/crc64.hpp"
#include "common/mutex.hpp"

namespace aeep::trace {

void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

u64 get_varint_checked(const std::vector<u8>& buf, std::size_t& pos) {
  u64 v = 0;
  unsigned shift = 0;
  while (true) {
    if (pos >= buf.size())
      throw TraceError(TraceErrorKind::kTruncated, "payload ends mid-varint");
    const u8 byte = buf[pos++];
    if (shift == 63 && (byte & ~u8{1}) != 0) throw_varint_overflow();
    v |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63)
      throw TraceError(TraceErrorKind::kCorrupt, "varint longer than 10 bytes");
  }
}

void throw_varint_overflow() {
  throw TraceError(TraceErrorKind::kCorrupt, "varint overflows 64 bits");
}

namespace {
/// t[0] is the byte-at-a-time table; t[k][b] is the CRC of byte b followed
/// by k zero bytes, so eight table reads advance the CRC by eight bytes.
using CrcTables = std::array<std::array<u32, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

/// Advance the running (inverted) CRC `c` over `n` bytes by table.
u32 crc32_by_table(u32 c, const u8* data, std::size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; data += 8, n -= 8) {
    const u32 lo = c ^ load_le32(data);
    const u32 hi = load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef AEEP_CRC32_CLMUL
// Carry-less multiply folding: Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of the IEEE polynomial. The constants are that
// paper's: x^k mod P(x), bit-reflected and shifted left by one, for the
// fold distances below; then x^64 div P(x) and P(x) for the Barrett step.
// The target attribute compiles these functions alone for PCLMULQDQ and
// SSE4.1; the build stays baseline x86-64, and crc32() calls them only
// where the CPU reports both.
#define AEEP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// `x` folded forward by the distance `k` encodes (low qword times k's
/// low, high times k's high), then `next` added in.
AEEP_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

AEEP_CLMUL_TARGET inline __m128i load128(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the running (inverted) CRC `c` over `n` bytes, n >= 64 and a
/// multiple of 16.
AEEP_CLMUL_TARGET u32 crc32_by_clmul(u32 c, const u8* p, std::size_t n) {
  const __m128i by_512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // k2:k1
  const __m128i by_128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // k4:k3
  const __m128i by_64 = _mm_set_epi64x(0, 0x163cd6124);             // k5
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // u:P
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four lanes of 16 bytes fold 64 bytes forward per step.
  __m128i a = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i b = load128(p + 16);
  __m128i d = load128(p + 32);
  __m128i e = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    a = fold(a, by_512, load128(p));
    b = fold(b, by_512, load128(p + 16));
    d = fold(d, by_512, load128(p + 32));
    e = fold(e, by_512, load128(p + 48));
  }
  // The lanes fold into one, then the remaining 16-byte blocks into it.
  a = fold(a, by_128, b);
  a = fold(a, by_128, d);
  a = fold(a, by_128, e);
  for (; n >= 16; p += 16, n -= 16) a = fold(a, by_128, load128(p));

  // 128 bits to 64: the low qword times k4 into the high one; then the
  // low 32 bits of that times k5 into the next 64.
  a = _mm_xor_si128(_mm_srli_si128(a, 8),
                    _mm_clmulepi64_si128(a, by_128, 0x10));
  a = _mm_xor_si128(_mm_srli_si128(a, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(a, low32), by_64, 0x00));
  // Barrett reduction of the 64-bit remainder to the 32-bit CRC.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(a, t), 1));
}
#endif
}  // namespace

u32 crc32_table(const u8* data, std::size_t n) {
  return crc32_by_table(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

bool crc32_folds_clmul() {
#ifdef AEEP_CRC32_CLMUL
  static const bool folds = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return folds;
#else
  return false;
#endif
}

u32 crc32(const u8* data, std::size_t n) {
  u32 c = 0xFFFFFFFFu;
#ifdef AEEP_CRC32_CLMUL
  if (n >= 64 && crc32_folds_clmul()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = crc32_by_clmul(c, data, blocks);
    data += blocks;
    n -= blocks;
  }
#endif
  return crc32_by_table(c, data, n) ^ 0xFFFFFFFFu;
}

FileWriter::FileWriter(const std::string& path, bool append)
    : path_(path), file_(std::fopen(path.c_str(), append ? "ab" : "wb")) {
  if (!file_)
    throw TraceError(TraceErrorKind::kIo, "cannot open for writing: " + path);
}

FileWriter::~FileWriter() {
  // Best effort on the unwinding path; close() explicitly to observe errors.
  if (file_) std::fclose(file_);
  file_ = nullptr;
}

void FileWriter::write_bytes(const void* data, std::size_t n) {
  if (!file_)
    throw TraceError(TraceErrorKind::kIo, "write after close: " + path_);
  if (n == 0) return;
  if (std::fwrite(data, 1, n, file_) != n)
    throw TraceError(TraceErrorKind::kIo, "short write: " + path_);
  bytes_ += n;
}

void FileWriter::write_u8(u8 v) { write_bytes(&v, 1); }

void FileWriter::write_u32(u32 v) {
  const u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                   static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  write_bytes(b, 4);
}

void FileWriter::flush() {
  if (!file_)
    throw TraceError(TraceErrorKind::kIo, "flush after close: " + path_);
  if (std::fflush(file_) != 0)
    throw TraceError(TraceErrorKind::kIo, "flush failed: " + path_);
}

void FileWriter::close() {
  if (!file_) return;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw TraceError(TraceErrorKind::kIo, "close failed: " + path_);
}

FileReader::FileReader(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "rb")) {
  if (!file_)
    throw TraceError(TraceErrorKind::kIo, "cannot open for reading: " + path);
}

FileReader::~FileReader() {
  if (file_) std::fclose(file_);
  file_ = nullptr;
}

void FileReader::read_bytes(void* out, std::size_t n) {
  if (n == 0) return;
  const std::size_t got = std::fread(out, 1, n, file_);
  offset_ += got;
  if (got != n)
    throw TraceError(TraceErrorKind::kTruncated, "short read: " + path_);
}

u8 FileReader::read_u8() {
  u8 v = 0;
  read_bytes(&v, 1);
  return v;
}

u32 FileReader::read_u32() {
  u8 b[4];
  read_bytes(b, 4);
  return static_cast<u32>(b[0]) | static_cast<u32>(b[1]) << 8 |
         static_cast<u32>(b[2]) << 16 | static_cast<u32>(b[3]) << 24;
}

bool FileReader::at_eof() {
  const int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

u64 FileReader::size() {
  if (size_known_) return size_;
  if (std::fseek(file_, 0, SEEK_END) != 0)
    throw TraceError(TraceErrorKind::kIo, "cannot seek: " + path_);
  const long end = std::ftell(file_);
  if (end < 0 || std::fseek(file_, static_cast<long>(offset_), SEEK_SET) != 0)
    throw TraceError(TraceErrorKind::kIo, "cannot seek: " + path_);
  size_ = static_cast<u64>(end);
  size_known_ = true;
  return size_;
}

void FileReader::seek(u64 offset) {
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)
    throw TraceError(TraceErrorKind::kIo, "cannot seek: " + path_);
  std::clearerr(file_);
  offset_ = offset;
}

u64 FileReader::whole_file_digest() {
  if (digest_known_) return digest_;
  const u64 here = tell();
  seek(0);
  Crc64 crc;
  std::array<u8, 65536> buf;
  std::size_t got = 0;
  while ((got = std::fread(buf.data(), 1, buf.size(), file_)) > 0)
    crc.update(buf.data(), got);
  if (std::ferror(file_))
    throw TraceError(TraceErrorKind::kIo, "read failed: " + path_);
  seek(here);
  digest_ = crc.value();
  digest_known_ = true;
  return digest_;
}

u64 file_digest(const std::string& path) {
  static aeep::Mutex mu;
  static std::map<std::string, u64> memo;
  {
    const MutexLock lock(mu);
    const auto it = memo.find(path);
    if (it != memo.end()) return it->second;
  }
  // Digest outside the lock: two threads may race to digest the same path,
  // but both compute the same value, so the second insert is a no-op.
  FileReader reader(path);
  const u64 digest = reader.whole_file_digest();
  const MutexLock lock(mu);
  memo.emplace(path, digest);
  return digest;
}

}  // namespace aeep::trace
