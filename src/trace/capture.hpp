// Capture sink the memory hierarchy drives during an execution-driven run.
//
// The hierarchy calls one hook per L1-level access (instruction-block
// fetch, load, accepted store), one per call it makes into the L2 (a fill
// on an L1 miss, a write-buffer drain) and one at the warm-up statistics
// reset; the sink forwards them to a chunked TraceWriter. finish() seals
// the file with the core's end-of-run summary, so replays can reproduce
// per-instruction rates, and with the L1-side statistics a replay of the
// L2-side stream reports.
#pragma once

#include <span>
#include <string>

#include "trace/writer.hpp"

namespace aeep::trace {

class CaptureSink {
 public:
  /// `l1_side_digest` names the hierarchy's L1 side (sim::l1_side_digest).
  CaptureSink(const std::string& path, u32 line_bytes, u64 l1_side_digest)
      : writer_(path, line_bytes, kDefaultChunkEvents, l1_side_digest) {}

  void on_fetch(Cycle now, Addr pc) {
    writer_.append({EventKind::kFetch, now, pc, 0});
  }
  void on_load(Cycle now, Addr addr) {
    writer_.append({EventKind::kLoad, now, addr, 0});
  }
  void on_store(Cycle now, Addr addr, u64 value) {
    writer_.append({EventKind::kStore, now, addr, value});
  }
  void on_stats_reset(Cycle now) {
    writer_.append({EventKind::kStatsReset, now, 0, 0});
    append_l2(L2OpKind::kStatsReset, now, 0, 0, 0, {});
  }
  /// An L1 miss at `now` read `line` from the L2 at `now + offset`.
  void on_l2_fill(Cycle now, Cycle offset, Addr line) {
    append_l2(L2OpKind::kFill, now, offset, line, 0, {});
  }
  /// A write-buffer drain at `now` wrote the words of `line_words` that
  /// `word_mask` selects into the L2's `line`.
  void on_l2_drain(Cycle now, Addr line, u64 word_mask,
                   std::span<const u64> line_words) {
    append_l2(L2OpKind::kDrain, now, 0, line, word_mask, line_words);
  }

  /// Seal the trace at core cycle `end_tick` with the measured-phase
  /// committed/load/store counts and the hierarchy's L1-side stats.
  void finish(Cycle end_tick, u64 committed, u64 loads, u64 stores,
              L1SideStats l1_side) {
    // A trace holds accepted stores only, so a replay never finds the write
    // buffer full: report what a replay of the L1-level events reports.
    l1_side.wbuf.full_events = 0;
    writer_.finish({end_tick, committed, loads, stores, 0, 0, l1_side});
  }

  const std::string& path() const { return writer_.path(); }

 private:
  void append_l2(L2OpKind kind, Cycle now, Cycle offset, Addr line,
                 u64 word_mask, std::span<const u64> line_words) {
    op_.kind = kind;
    op_.tick = now;
    op_.offset = offset;
    op_.line = line;
    op_.word_mask = word_mask;
    op_.words.clear();
    for (std::size_t w = 0; w < line_words.size() && w < 64; ++w)
      if ((word_mask >> w) & 1) op_.words.push_back(line_words[w]);
    writer_.append_l2(op_);
  }

  TraceWriter writer_;
  L2Op op_;  ///< reused, so a drain's word list allocates only once
};

}  // namespace aeep::trace
