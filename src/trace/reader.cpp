#include "trace/reader.hpp"

#include <algorithm>

namespace aeep::trace {

namespace {

[[noreturn]] void throw_corrupt(const std::string& what,
                                const std::string& path) {
  throw TraceError(TraceErrorKind::kCorrupt, what + ": " + path);
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : file_(path) {
  u32 magic = 0;
  try {
    magic = file_.read_u32();
  } catch (const TraceError&) {
    throw TraceError(TraceErrorKind::kTruncated, "no header: " + path);
  }
  if (magic != kTraceMagic)
    throw TraceError(TraceErrorKind::kBadMagic, "not a trace file: " + path);
  version_ = file_.read_u32();
  if (version_ != kTraceVersion && version_ != kTraceVersion1)
    throw TraceError(TraceErrorKind::kBadVersion,
                     "trace is v" + std::to_string(version_) +
                         ", reader reads v1 and v2: " + path);
  line_bytes_ = file_.read_u32();
  const u32 flags = file_.read_u32();  // reserved in v1
  if (version_ == kTraceVersion1) return;
  if ((flags & ~kHasL2Stream) != 0)
    throw TraceError(TraceErrorKind::kCorrupt,
                     "unknown header flags " + std::to_string(flags) + ": " +
                         path);
  flags_ = flags;
  const u64 lo = file_.read_u32();
  l1_side_digest_ = lo | static_cast<u64>(file_.read_u32()) << 32;
}

bool TraceReader::load_chunk(u8 want) {
  while (true) {
    if (file_.at_eof())
      throw TraceError(TraceErrorKind::kTruncated,
                       "file ends without a footer: " + path());
    const u8 tag = file_.read_u8();
    if (tag == kFooterTag) {
      read_footer();
      return false;
    }
    const bool l2 = tag == kL2ChunkTag;
    if (tag != kDataChunkTag && !(l2 && has_l2_stream()))
      throw TraceError(TraceErrorKind::kCorrupt,
                       "unknown chunk tag " + std::to_string(tag) + ": " +
                           path());
    const u32 payload_bytes = file_.read_u32();
    const u32 count = file_.read_u32();
    const u32 crc = file_.read_u32();
    if (count == 0)
      throw TraceError(TraceErrorKind::kCorrupt, "empty chunk: " + path());
    read_payload(payload_bytes, crc, "chunk");
    ++(l2 ? l2_chunks_ : chunks_);
    if (tag != want) {
      (l2 ? l2_ops_ : events_) += count;
      continue;
    }
    pos_ = 0;
    chunk_left_ = count;
    prev_tick_ = 0;
    prev_addr_ = 0;
    return true;
  }
}

void TraceReader::read_payload(u32 payload_bytes, u32 crc, const char* what) {
  const u64 at = file_.tell();
  const u64 left = file_.remaining();
  if (payload_bytes > left)
    throw TraceError(TraceErrorKind::kTruncated,
                     std::string(what) + " at byte " + std::to_string(at) +
                         " claims " + std::to_string(payload_bytes) +
                         " bytes, the file has " + std::to_string(left) +
                         " left: " + path());
  payload_.resize(payload_bytes);
  file_.read_bytes(payload_.data(), payload_bytes);
  if (crc32(payload_) != crc)
    throw TraceError(TraceErrorKind::kCorrupt,
                     std::string(what) + " CRC mismatch at byte " +
                         std::to_string(at) + ": " + path());
}

void TraceReader::read_footer() {
  const u32 payload_bytes = file_.read_u32();
  const u32 crc = file_.read_u32();
  read_payload(payload_bytes, crc, "footer");
  std::size_t p = 0;
  summary_.end_tick = get_varint(payload_, p);
  summary_.committed = get_varint(payload_, p);
  summary_.loads = get_varint(payload_, p);
  summary_.stores = get_varint(payload_, p);
  summary_.events = get_varint(payload_, p);
  if (version_ != kTraceVersion1) summary_.l2_ops = get_varint(payload_, p);
  if (has_l2_stream())
    for_each_leaf(summary_.l1_side,
                  [&](u64& v) { v = get_varint(payload_, p); });
  if (p != payload_.size())
    throw TraceError(TraceErrorKind::kCorrupt,
                     "footer has trailing bytes: " + path());
  if (summary_.events != events_)
    throw TraceError(TraceErrorKind::kCorrupt,
                     "footer event count " + std::to_string(summary_.events) +
                         " != " + std::to_string(events_) +
                         " events in the chunks: " + path());
  if (summary_.l2_ops != l2_ops_)
    throw TraceError(TraceErrorKind::kCorrupt,
                     "footer L2 op count " + std::to_string(summary_.l2_ops) +
                         " != " + std::to_string(l2_ops_) +
                         " ops in the chunks: " + path());
  if (!file_.at_eof())
    throw TraceError(TraceErrorKind::kCorrupt,
                     "data after the footer: " + path());
  done_ = true;
}

u8 TraceReader::begin_record(u8 max_kind) {
  if (pos_ >= payload_.size())
    throw TraceError(TraceErrorKind::kCorrupt,
                     "chunk payload shorter than its record count: " + path());
  const u8 kind = payload_[pos_++];
  if (kind > max_kind)
    throw TraceError(TraceErrorKind::kCorrupt,
                     "unknown record kind " + std::to_string(kind) + ": " +
                         path());
  prev_tick_ += get_varint(payload_, pos_);
  return kind;
}

Addr TraceReader::next_addr() {
  // Unsigned: a delta from the file may wrap, never overflow.
  prev_addr_ += static_cast<Addr>(unzigzag(get_varint(payload_, pos_)));
  return prev_addr_;
}

void TraceReader::end_record() {
  --chunk_left_;
  if (chunk_left_ == 0 && pos_ != payload_.size())
    throw TraceError(TraceErrorKind::kCorrupt,
                     "chunk has trailing bytes: " + path());
}

bool TraceReader::next(TraceEvent& out) {
  if (done_) return false;
  if (chunk_left_ == 0 && !load_chunk(kDataChunkTag)) return false;
  out.kind = static_cast<EventKind>(
      begin_record(static_cast<u8>(EventKind::kStatsReset)));
  out.tick = prev_tick_;
  out.addr = out.kind != EventKind::kStatsReset ? next_addr() : 0;
  out.value = out.kind == EventKind::kStore ? get_varint(payload_, pos_) : 0;
  end_record();
  ++events_;
  return true;
}

bool TraceReader::next_l2_chunk(L2Chunk& out) {
  if (done_ || !load_chunk(kL2ChunkTag)) return false;
  const u32 count = chunk_left_;
  chunk_left_ = 0;
  // Record i ends at least 2(i + 1) bytes into the payload, so a count
  // above half of it runs out of bytes (and throws) before any record past
  // that bound is stored: the buffer is sized by the bound, not the claim.
  out.ops.resize(std::min<std::size_t>(count, payload_.size() / 2));
  // The replay hands drains straight to ProtectedL2::write, which needs a
  // line-aligned address and a mask within the line.
  const Addr line_offset = static_cast<Addr>(line_bytes_) - 1;
  const u32 words_per_line = line_bytes_ / 8;
  const u32 max_words = std::min<u32>(words_per_line, 64);
  // A record takes at most a kind byte, three varints and one varint per
  // word its mask may select once the mask passed the line check.
  const std::ptrdiff_t max_record = 31 + 10 * std::ptrdiff_t{max_words};
  const u8* p = payload_.data();
  const u8* const end = p + payload_.size();
  Cycle tick = 0;
  Addr addr = 0;
  std::size_t w = 0;  // words used in out.words

  const auto decode = [&](auto varint) {
    L2Op op;
    const u8 kind = *p++;
    if (kind > static_cast<u8>(L2OpKind::kStatsReset))
      throw_corrupt("unknown record kind " + std::to_string(kind), path());
    op.kind = static_cast<L2OpKind>(kind);
    tick += varint();
    op.tick = tick;
    switch (op.kind) {
      case L2OpKind::kFill:
        op.offset = varint();
        addr += static_cast<Addr>(unzigzag(varint()));
        op.line = addr;
        break;
      case L2OpKind::kDrain:
        addr += static_cast<Addr>(unzigzag(varint()));
        op.line = addr;
        op.word_mask = varint();
        if ((op.line & line_offset) != 0 ||
            (words_per_line < 64 && (op.word_mask >> words_per_line) != 0))
          throw_corrupt("drain does not fit a " + std::to_string(line_bytes_) +
                            "-byte line",
                        path());
        if (out.words.size() - w < max_words)
          out.words.resize(2 * (w + max_words));
        for (u64 m = op.word_mask; m != 0; m &= m - 1)
          out.words[w++] = varint();
        break;
      case L2OpKind::kStatsReset:
        break;
    }
    return op;
  };
  // While a maximal record fits before the payload's end its varints need
  // no bounds check; the chunk's tail takes the checked loop.
  for (u32 i = 0; i < count; ++i) {
    if (end - p >= max_record) {
      out.ops[i] = decode([&] { return get_varint_unbounded(p); });
      continue;
    }
    if (p == end)
      throw_corrupt("chunk payload shorter than its record count", path());
    out.ops[i] = decode([&] {
      std::size_t pos = static_cast<std::size_t>(p - payload_.data());
      const u64 v = get_varint_checked(payload_, pos);
      p = payload_.data() + pos;
      return v;
    });
  }
  if (p != end) throw_corrupt("chunk has trailing bytes", path());
  l2_ops_ += count;
  return true;
}

}  // namespace aeep::trace
