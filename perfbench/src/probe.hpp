// Sampled host-time probes for the traced pass. Decorators implementing
// cpu::UopSource and cpu::MemoryInterface wrap the real workload generator
// and memory hierarchy from outside; every call is counted and a random
// ~1/64 of calls is timed, so the estimate of a layer's time is its sampled
// time scaled by calls / sampled calls. Timing every call would add more
// than the layers being measured (a tick costs a few tens of nanoseconds).
#pragma once

#include <string>

#include "common.hpp"
#include "sim/system.hpp"

namespace perfbench {

/// One traced cell: its simulated result (the fields the untraced run must
/// reproduce) and the L2 counters a RunResult does not carry. Its host
/// time goes into the caller's LayerTotals.
struct TracedCell {
  aeep::sim::RunResult result;
  u64 inspections = 0;    ///< cleaning-FSM set inspections
  u64 silent_elided = 0;  ///< check-bit re-encodes skipped as silent
};

/// Exec cell under the decorators, with System::run's protocol (warm up,
/// reset statistics, measure). Adds its layer times to `totals`.
TracedCell run_traced_exec(const aeep::sim::SweepJob& job, u64 sample_seed,
                           LayerTotals& totals, Spans& spans,
                           Spans::Id parent);

/// Trace cell: the trace::ReplayDriver loop re-driven through the memory
/// decorator, so replay time splits by hierarchy entry point.
TracedCell run_traced_replay(const aeep::sim::SweepJob& job, u64 sample_seed,
                             LayerTotals& totals, Spans& spans,
                             Spans::Id parent);

/// What two runs of one cell must agree on.
enum class Same {
  kAll,     ///< two exec runs: every core and hierarchy count
  kReplay,  ///< two replays: the hierarchy, plus committed and cycles
  /// a replay against its capture run: as kReplay, less the write buffer's
  /// full events (a trace records only the stores the buffer accepted)
  kCapture,
};

/// "" when `a` reproduces `b` as `same` asks, else the first difference.
std::string compare_results(const aeep::sim::RunResult& a,
                            const aeep::sim::RunResult& b, Same same);

}  // namespace perfbench
