// Cross-validation harness: run one workload execution-driven (capturing a
// trace as it goes), replay the trace through the same hierarchy
// configuration, and diff the paper's metrics. Replay under the capture
// configuration is exact, so the gate requires every metric to be equal;
// it also reports the per-cell replay speedup.
#pragma once

#include <string>
#include <vector>

#include "sim/system.hpp"

namespace aeep::trace {

struct MetricDiff {
  std::string name;
  double exec = 0.0;
  double replay = 0.0;
};

struct ValidationReport {
  std::string benchmark;
  std::string trace_path;
  std::vector<MetricDiff> metrics;
  bool pass = false;  ///< exec == replay on every metric
  double exec_seconds = 0.0;
  double replay_seconds = 0.0;
  u64 trace_events = 0;
  u64 trace_bytes = 0;

  double speedup() const {
    return replay_seconds > 0.0 ? exec_seconds / replay_seconds : 0.0;
  }
  /// Multi-line human-readable summary (also used by the CI gate's log).
  std::string to_text() const;
};

/// The metric set the gate compares: dirty ratio and the WB / Clean-WB /
/// ECC-WB breakdown (ECC-WB is the shared-ECC conflict-eviction count).
std::vector<MetricDiff> diff_metrics(const sim::RunResult& exec,
                                     const sim::RunResult& replay);

/// Run `cfg` both ways, writing the captured trace to `trace_path`.
ValidationReport cross_validate(const sim::SystemConfig& cfg,
                                const std::string& trace_path);

}  // namespace aeep::trace
