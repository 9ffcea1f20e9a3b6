// Streaming trace reader: decodes one chunk at a time (constant memory in
// the trace length), verifies every chunk's CRC and record count, and
// surfaces malformed input as typed TraceErrors — see error.hpp. A reader
// serves one of a file's two streams, the L1-level events (next) or the
// L2-side ops (next_l2); it CRC-checks and counts the other stream's chunks
// as it skips them, so either way a damaged file is rejected.
#pragma once

#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/io.hpp"

namespace aeep::trace {

class TraceReader {
 public:
  /// Opens `path` and validates the header (magic, version, flags).
  explicit TraceReader(const std::string& path);

  /// Decode the next L1-level event into `out`, skipping L2 chunks.
  /// Returns false once the footer has been reached (then `summary()` is
  /// valid); throws TraceError on any malformed input, including a file
  /// that ends without a footer.
  bool next(TraceEvent& out);

  /// Decode the next L2-side op into `out`, skipping L1 chunks; otherwise
  /// as next(). A file without an L2-side stream yields no ops. Do not mix
  /// next() and next_l2() on one reader.
  bool next_l2(L2Op& out);

  /// Capture-side run summary; only valid after next() or next_l2()
  /// returned false.
  const TraceSummary& summary() const { return summary_; }

  u32 version() const { return version_; }
  u32 line_bytes() const { return line_bytes_; }
  bool has_l2_stream() const { return (flags_ & kHasL2Stream) != 0; }
  /// The L1 side the L2-side stream was captured under (0 without one).
  u64 l1_side_digest() const { return l1_side_digest_; }
  /// L1-level events so far: decoded by next(), or counted in the chunks
  /// next_l2() skipped.
  u64 events_read() const { return events_; }
  /// L2-side ops so far, likewise.
  u64 l2_ops_read() const { return l2_ops_; }
  u64 chunks_read() const { return chunks_; }
  u64 l2_chunks_read() const { return l2_chunks_; }
  const std::string& path() const { return file_.path(); }

 private:
  /// Load and CRC-check chunks until one tagged `want` (kDataChunkTag or
  /// kL2ChunkTag) is loaded into payload_, counting the records of the
  /// chunks skipped on the way. Returns false when the footer was consumed.
  bool load_chunk(u8 want);
  /// Parse and check the footer into summary_ (its tag already read).
  void read_footer();
  /// Kind byte and tick delta of the next record; throws on a bad kind.
  u8 begin_record(u8 max_kind);
  /// Next zigzag address delta of the current chunk.
  Addr next_addr();
  /// Ends a record: the last one of a chunk must end its payload.
  void end_record();

  FileReader file_;
  u32 version_ = 0;
  u32 line_bytes_ = 0;
  u32 flags_ = 0;
  u64 l1_side_digest_ = 0;
  std::vector<u8> payload_;
  std::size_t pos_ = 0;
  u32 chunk_left_ = 0;  ///< records remaining in the current chunk
  Cycle prev_tick_ = 0;
  Addr prev_addr_ = 0;
  u64 events_ = 0;
  u64 l2_ops_ = 0;
  u64 chunks_ = 0;
  u64 l2_chunks_ = 0;
  bool done_ = false;
  TraceSummary summary_{};
};

}  // namespace aeep::trace
