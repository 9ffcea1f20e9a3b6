// Capture sink the memory hierarchy drives during an execution-driven run.
//
// The hierarchy calls one hook per L2-visible access (instruction-block
// fetch, load, accepted store) plus the warm-up statistics reset; the sink
// forwards them to a chunked TraceWriter. finish() seals the file with the
// core's end-of-run summary so replays can reproduce per-instruction rates.
#pragma once

#include <string>

#include "trace/writer.hpp"

namespace aeep::trace {

class CaptureSink {
 public:
  CaptureSink(const std::string& path, u32 line_bytes)
      : writer_(path, line_bytes) {}

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
  }

  /// Seal the trace at core cycle `end_tick` with the measured-phase
  /// committed/load/store counts.
  void finish(Cycle end_tick, u64 committed, u64 loads, u64 stores) {
    writer_.finish({end_tick, committed, loads, stores, 0});
  }

  const std::string& path() const { return writer_.path(); }

 private:
  TraceWriter writer_;
};

}  // namespace aeep::trace
