// Streaming trace writer: buffers events (and L2-side ops) into
// delta-encoded chunks and appends each with its own CRC; finish() seals
// the file with the footer.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/io.hpp"

namespace aeep::trace {

class TraceWriter {
 public:
  /// Opens `path` and writes the header. `line_bytes` is recorded so tools
  /// can sanity-check a trace against the replay geometry. With
  /// `l1_side_digest` the file carries an L2-side stream (append_l2) that
  /// the L1 side of that digest produced; without, L1-level events only.
  TraceWriter(const std::string& path, u32 line_bytes,
              u32 chunk_events = kDefaultChunkEvents,
              std::optional<u64> l1_side_digest = std::nullopt);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TraceEvent& e);
  /// Append one L2-side op; only for a writer built with a digest. A
  /// drain's `words` are its masked words, lowest first.
  void append_l2(const L2Op& op, std::span<const u64> words = {});

  /// Flush the pending chunks, write the footer (with `summary.events` and
  /// `summary.l2_ops` filled in from the actual counts) and close. Append
  /// after finish is a logic error. Safe to call twice.
  void finish(TraceSummary summary);

  const std::string& path() const { return file_.path(); }

 private:
  /// One stream's pending chunk and its delta state (reset every chunk).
  struct Pending {
    std::vector<u8> payload;
    u32 count = 0;  ///< records in payload
    u64 total = 0;  ///< records appended over the whole file
    Cycle prev_tick = 0;
    Addr prev_addr = 0;
  };

  /// Kind byte and tick delta, shared by both record kinds.
  void begin_record(Pending& p, u8 kind, Cycle tick);
  void put_addr(Pending& p, Addr a);
  void end_record(Pending& p, u8 tag);
  void flush_chunk(Pending& p, u8 tag);

  FileWriter file_;
  u32 chunk_events_;
  bool has_l2_;
  Pending events_;
  Pending l2_;
  bool finished_ = false;
};

}  // namespace aeep::trace
