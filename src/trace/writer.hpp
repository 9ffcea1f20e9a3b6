// Streaming trace writer: buffers events into delta-encoded chunks and
// appends each with its own CRC; finish() seals the file with the footer.
#pragma once

#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/io.hpp"

namespace aeep::trace {

class TraceWriter {
 public:
  /// Opens `path` and writes the header. `line_bytes` is recorded so tools
  /// can sanity-check a trace against the replay geometry.
  TraceWriter(const std::string& path, u32 line_bytes,
              u32 chunk_events = kDefaultChunkEvents);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TraceEvent& e);

  /// Flush the pending chunk, write the footer (with `summary.events`
  /// filled in from the actual count) and close. Append after finish is a
  /// logic error. Safe to call twice.
  void finish(TraceSummary summary);

  const std::string& path() const { return file_.path(); }

 private:
  void flush_chunk();

  FileWriter file_;
  std::vector<u8> payload_;
  u32 chunk_events_;
  u32 pending_ = 0;     ///< events in payload_
  u64 events_ = 0;
  Cycle prev_tick_ = 0; ///< delta state, reset every chunk
  Addr prev_addr_ = 0;
  bool finished_ = false;
};

}  // namespace aeep::trace
