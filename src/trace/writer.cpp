#include "trace/writer.hpp"

#include "common/bitops.hpp"

namespace aeep::trace {

TraceWriter::TraceWriter(const std::string& path, u32 line_bytes,
                         u32 chunk_events, std::optional<u64> l1_side_digest)
    : file_(path),
      chunk_events_(chunk_events == 0 ? 1 : chunk_events),
      has_l2_(l1_side_digest.has_value()) {
  const u64 digest = l1_side_digest.value_or(0);
  file_.write_u32(kTraceMagic);
  file_.write_u32(kTraceVersion);
  file_.write_u32(line_bytes);
  file_.write_u32(has_l2_ ? kHasL2Stream : 0);
  file_.write_u32(static_cast<u32>(digest));
  file_.write_u32(static_cast<u32>(digest >> 32));
  events_.payload.reserve(static_cast<std::size_t>(chunk_events_) * 8);
  if (has_l2_) l2_.payload.reserve(static_cast<std::size_t>(chunk_events_) * 16);
}

TraceWriter::~TraceWriter() {
  // An unfinished writer leaves a footer-less file behind, which readers
  // reject as truncated — exactly right for a crashed capture.
}

void TraceWriter::begin_record(Pending& p, u8 kind, Cycle tick) {
  if (finished_)
    throw TraceError(TraceErrorKind::kIo, "append after finish: " + path());
  if (tick < p.prev_tick)
    throw TraceError(TraceErrorKind::kCorrupt,
                     "record ticks must be non-decreasing");
  p.payload.push_back(kind);
  put_varint(p.payload, tick - p.prev_tick);
  p.prev_tick = tick;
}

void TraceWriter::put_addr(Pending& p, Addr a) {
  put_varint(p.payload, zigzag(static_cast<i64>(a - p.prev_addr)));
  p.prev_addr = a;
}

void TraceWriter::end_record(Pending& p, u8 tag) {
  ++p.count;
  ++p.total;
  if (p.count >= chunk_events_) flush_chunk(p, tag);
}

void TraceWriter::append(const TraceEvent& e) {
  begin_record(events_, static_cast<u8>(e.kind), e.tick);
  if (e.kind != EventKind::kStatsReset) put_addr(events_, e.addr);
  if (e.kind == EventKind::kStore) put_varint(events_.payload, e.value);
  end_record(events_, kDataChunkTag);
}

void TraceWriter::append_l2(const L2Op& op, std::span<const u64> words) {
  if (!has_l2_)
    throw TraceError(TraceErrorKind::kIo,
                     "L2 op for a trace without an L2-side stream: " + path());
  if (op.kind == L2OpKind::kDrain &&
      words.size() != popcount64(op.word_mask))
    throw TraceError(TraceErrorKind::kCorrupt,
                     "drain words do not match its word mask");
  begin_record(l2_, static_cast<u8>(op.kind), op.tick);
  switch (op.kind) {
    case L2OpKind::kFill:
      put_varint(l2_.payload, op.offset);
      put_addr(l2_, op.line);
      break;
    case L2OpKind::kDrain:
      put_addr(l2_, op.line);
      put_varint(l2_.payload, op.word_mask);
      for (const u64 w : words) put_varint(l2_.payload, w);
      break;
    case L2OpKind::kStatsReset:
      break;
  }
  end_record(l2_, kL2ChunkTag);
}

void TraceWriter::flush_chunk(Pending& p, u8 tag) {
  if (p.count == 0) return;
  file_.write_u8(tag);
  file_.write_u32(static_cast<u32>(p.payload.size()));
  file_.write_u32(p.count);
  file_.write_u32(crc32(p.payload));
  file_.write_bytes(p.payload.data(), p.payload.size());
  p.payload.clear();
  p.count = 0;
  p.prev_tick = 0;  // per-chunk delta restart: chunks decode independently
  p.prev_addr = 0;
}

void TraceWriter::finish(TraceSummary summary) {
  if (finished_) return;
  flush_chunk(events_, kDataChunkTag);
  flush_chunk(l2_, kL2ChunkTag);
  summary.events = events_.total;
  summary.l2_ops = l2_.total;
  std::vector<u8> footer;
  for (const u64 v : {summary.end_tick, summary.committed, summary.loads,
                      summary.stores, summary.events, summary.l2_ops})
    put_varint(footer, v);
  if (has_l2_)
    for_each_leaf(summary.l1_side, [&](u64 v) { put_varint(footer, v); });
  file_.write_u8(kFooterTag);
  file_.write_u32(static_cast<u32>(footer.size()));
  file_.write_u32(crc32(footer));
  file_.write_bytes(footer.data(), footer.size());
  file_.close();
  finished_ = true;
}

}  // namespace aeep::trace
