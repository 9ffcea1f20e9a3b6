// Trace-driven frontend: re-drives the real memory models (and whichever
// protection scheme is configured) from a recorded trace, skipping the
// out-of-order core entirely.
//
// A replay drives the protected L2 alone, from the trace's L2-side stream,
// when the trace carries one captured under this config's L1 side and
// strikes are off: the L1 side never reads L2 state, so its fills and
// drains are those the capture recorded, and its statistics are the
// footer's. Otherwise — v1 files, streams written without an L2 section, a
// different L1 side, strike configs — it re-drives the L1s, TLBs and write
// buffer from the L1-level events. Cycle semantics mirror the core exactly
// either way — tick(c) fires before any access issued at c, and in every
// other cycle c in which the hierarchy has work (its next_event()) — so
// replaying a trace under the configuration it was captured with reproduces
// the execution-driven dirty/write-back metrics bit-for-bit.
// Replaying under a *different* protection configuration is the usual
// trace-driven approximation: the stream's issue cycles are those of the
// captured machine.
#pragma once

#include <string>

#include "sim/hierarchy.hpp"
#include "sim/system.hpp"
#include "trace/reader.hpp"

namespace aeep::trace {

struct ReplayConfig {
  sim::HierarchyConfig hierarchy{};
  std::string trace_path;
};

class ReplayDriver {
 public:
  explicit ReplayDriver(ReplayConfig config);

  /// Replay the whole trace and assemble the run metrics. The result's
  /// `benchmark` / `floating_point` fields are left for the caller (the
  /// trace does not know them); core stats carry the capture summary's
  /// committed/load/store counts and the replayed cycle count so IPC and
  /// per-instruction rates stay meaningful.
  sim::RunResult run();

  /// The trace's L1-level event count, whichever stream run() drove.
  u64 events_replayed() const { return events_; }
  /// Whether the last run() drove the L2 from the L2-side stream.
  bool drove_l2_stream() const { return drove_l2_stream_; }

 private:
  ReplayConfig config_;
  u64 events_ = 0;
  bool drove_l2_stream_ = false;
};

}  // namespace aeep::trace
