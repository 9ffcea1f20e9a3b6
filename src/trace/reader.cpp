#include "trace/reader.hpp"

namespace aeep::trace {

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
    payload_.resize(payload_bytes);
    file_.read_bytes(payload_.data(), payload_bytes);
    if (crc32(payload_) != crc)
      throw TraceError(TraceErrorKind::kCorrupt,
                       "chunk CRC mismatch (chunk " +
                           std::to_string(chunks_ + l2_chunks_) + "): " +
                           path());
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

void TraceReader::read_footer() {
  const u32 payload_bytes = file_.read_u32();
  const u32 crc = file_.read_u32();
  payload_.resize(payload_bytes);
  file_.read_bytes(payload_.data(), payload_bytes);
  if (crc32(payload_) != crc)
    throw TraceError(TraceErrorKind::kCorrupt, "footer CRC mismatch: " + path());
  std::size_t p = 0;
  summary_.end_tick = get_varint(payload_, p);
  summary_.committed = get_varint(payload_, p);
  summary_.loads = get_varint(payload_, p);
  summary_.stores = get_varint(payload_, p);
  summary_.events = get_varint(payload_, p);
  if (version_ != kTraceVersion1) summary_.l2_ops = get_varint(payload_, p);
  if (has_l2_stream())
    for_each_counter(summary_.l1_side,
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
  const i64 delta = unzigzag(get_varint(payload_, pos_));
  prev_addr_ = static_cast<Addr>(static_cast<i64>(prev_addr_) + delta);
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

bool TraceReader::next_l2(L2Op& out) {
  if (done_) return false;
  if (chunk_left_ == 0 && !load_chunk(kL2ChunkTag)) return false;
  out.kind = static_cast<L2OpKind>(
      begin_record(static_cast<u8>(L2OpKind::kStatsReset)));
  out.tick = prev_tick_;
  out.offset = 0;
  out.line = 0;
  out.word_mask = 0;
  out.words.clear();
  switch (out.kind) {
    case L2OpKind::kFill:
      out.offset = get_varint(payload_, pos_);
      out.line = next_addr();
      break;
    case L2OpKind::kDrain: {
      out.line = next_addr();
      // The replay hands these straight to ProtectedL2::write, which needs
      // a line-aligned address and a mask within the line.
      const u32 words_per_line = line_bytes_ / 8;
      out.word_mask = get_varint(payload_, pos_);
      if ((out.line & (static_cast<Addr>(line_bytes_) - 1)) != 0 ||
          (words_per_line < 64 && (out.word_mask >> words_per_line) != 0))
        throw TraceError(TraceErrorKind::kCorrupt,
                         "drain does not fit a " + std::to_string(line_bytes_) +
                             "-byte line: " + path());
      for (u64 m = out.word_mask; m != 0; m &= m - 1)
        out.words.push_back(get_varint(payload_, pos_));
      break;
    }
    case L2OpKind::kStatsReset:
      break;
  }
  end_record();
  ++l2_ops_;
  return true;
}

}  // namespace aeep::trace
