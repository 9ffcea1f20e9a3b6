#include "trace/replay.hpp"

#include <algorithm>
#include <utility>

namespace aeep::trace {

namespace {

/// Fire tick(c) for every cycle c in [ticked, until) in which the hierarchy
/// has work (MemoryInterface::next_event); the others are no-ops.
void tick_until(sim::MemoryHierarchy& hier, Cycle& ticked, Cycle until) {
  while (ticked < until) {
    ticked = std::min(until, hier.next_event(ticked));
    if (ticked == until) return;
    hier.tick(ticked++);
  }
}

}  // namespace

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
      tick_until(hier, ticked, e.tick);
      hier.reset_stats(e.tick);
      reset_tick = e.tick;
      continue;
    }
    // tick(T) precedes any access issued at T: the core ticks the
    // hierarchy at the top of every cycle it steps, and it steps every
    // cycle it issues an access in. tick(T) always fires, since an access
    // reads state a tick stamps (the stuck-fault clock of reassert_line).
    if (ticked <= e.tick) {
      tick_until(hier, ticked, e.tick);
      hier.tick(ticked++);
    }
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
          (void)hier.store(e.tick, e.addr, e.value);
        }
        break;
      case EventKind::kStatsReset:
        break;  // handled above
    }
    ++events_;
  }

  const TraceSummary& s = reader.summary();
  tick_until(hier, ticked, s.end_tick);
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
