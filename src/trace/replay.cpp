#include "trace/replay.hpp"

#include <utility>

namespace aeep::trace {

ReplayDriver::ReplayDriver(ReplayConfig config) : config_(std::move(config)) {
  // Replay never re-captures; a capture path here is almost certainly a
  // copied execution config, and honouring it would overwrite the input.
  config_.hierarchy.capture_path.clear();
}

sim::RunResult ReplayDriver::run() {
  sim::MemoryHierarchy hier(config_.hierarchy);
  TraceReader reader(config_.trace_path);

  Cycle ticked = 0;      // next cycle whose tick() has not fired yet
  Cycle reset_tick = 0;  // warm-up boundary (0 when the trace has none)
  TraceEvent e;
  while (reader.next(e)) {
    if (e.kind == EventKind::kStatsReset) {
      // The core resets stats between steps: after tick(T-1), before
      // tick(T). Catch the clock up to (not including) the reset cycle.
      while (ticked < e.tick) hier.tick(ticked++);
      hier.reset_stats(e.tick);
      reset_tick = e.tick;
      continue;
    }
    // tick(T) precedes any access issued at T (the core ticks the hierarchy
    // at the top of every cycle).
    while (ticked <= e.tick) hier.tick(ticked++);
    switch (e.kind) {
      case EventKind::kFetch:
        (void)hier.fetch(e.tick, e.addr);
        break;
      case EventKind::kLoad:
        (void)hier.load(e.tick, e.addr);
        break;
      case EventKind::kStore:
        if (!hier.store(e.tick, e.addr, e.value)) {
          // Self-captured traces only record accepted stores, so the
          // buffer can only be full for externally ingested streams whose
          // issue cycles never let it drain. Force room rather than drop.
          hier.flush_write_buffer(e.tick);
          ++forced_flushes_;
          (void)hier.store(e.tick, e.addr, e.value);
        }
        break;
      case EventKind::kStatsReset:
        break;  // handled above
    }
    ++events_;
  }

  const TraceSummary& s = reader.summary();
  while (ticked < s.end_tick) hier.tick(ticked++);
  hier.l2().finalize(s.end_tick);

  sim::RunResult r = sim::hierarchy_result(hier);
  r.core.committed = s.committed;
  r.core.loads = s.loads;
  r.core.stores = s.stores;
  r.core.cycles = s.end_tick - reset_tick;
  events_ = reader.events_read();
  return r;
}

}  // namespace aeep::trace
