// Trace-driven frontend: re-drives the real L1/write-buffer/L2 models (and
// whichever protection scheme is configured) from a recorded access stream,
// skipping the out-of-order core entirely. Cycle semantics mirror the core
// exactly — tick(c) fires before any access issued at c, and in every other
// cycle c in which the hierarchy has work (its next_event()) — so replaying
// a trace under the configuration it was captured with reproduces the
// execution-driven dirty/write-back metrics bit-for-bit.
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

  u64 events_replayed() const { return events_; }

 private:
  ReplayConfig config_;
  u64 events_ = 0;
};

}  // namespace aeep::trace
