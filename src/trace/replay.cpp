#include "trace/replay.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

namespace aeep::trace {

namespace {

/// Fire tick(c) for every cycle c in [ticked, until) in which `clocked` (the
/// hierarchy, or the L2 alone) has work (its next_event); the others are
/// no-ops.
template <class Clocked>
void tick_until(Clocked& clocked, Cycle& ticked, Cycle until) {
  while (ticked < until) {
    ticked = std::min(until, clocked.next_event(ticked));
    if (ticked == until) return;
    clocked.tick(ticked++);
  }
}

/// Re-drive the whole hierarchy from the L1-level events. Returns the
/// warm-up boundary (0 when the trace has none).
Cycle drive_l1_events(sim::MemoryHierarchy& hier, TraceReader& reader) {
  Cycle ticked = 0;      // next cycle whose tick() has not fired yet
  Cycle reset_tick = 0;
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
  }
  tick_until(hier, ticked, reader.summary().end_tick);
  return reset_tick;
}

/// Drive the hierarchy's L2 alone from the L2-side stream, in the order the
/// hierarchy's tick(T) and accesses at T call it: T's drains, then the L2's
/// tick(T), then the fills issued at T. Returns the warm-up boundary.
Cycle drive_l2_stream(sim::MemoryHierarchy& hier, TraceReader& reader) {
  protect::ProtectedL2& l2 = hier.l2();
  std::vector<u64> line_words(l2.config().geometry.words_per_line());
  Cycle ticked = 0;  // next cycle whose L2 tick() has not fired yet
  Cycle reset_tick = 0;
  L2Op op;
  while (reader.next_l2(op)) {
    switch (op.kind) {
      case L2OpKind::kDrain: {
        tick_until(l2, ticked, op.tick);
        // The reader bounds the mask to the line, whose size the caller
        // checked against this L2's.
        std::size_t i = 0;
        for (u64 m = op.word_mask; m != 0; m &= m - 1)
          line_words[static_cast<std::size_t>(std::countr_zero(m))] =
              op.words[i++];
        (void)l2.write(op.tick, op.line, op.word_mask, line_words);
        break;
      }
      case L2OpKind::kFill:
        tick_until(l2, ticked, op.tick + 1);
        (void)l2.read(op.tick + op.offset, op.line);
        break;
      case L2OpKind::kStatsReset:
        tick_until(l2, ticked, op.tick);
        hier.reset_stats(op.tick);
        reset_tick = op.tick;
        break;
    }
  }
  tick_until(l2, ticked, reader.summary().end_tick);
  return reset_tick;
}

}  // namespace

ReplayDriver::ReplayDriver(ReplayConfig config) : config_(std::move(config)) {
  // Replay never re-captures; a capture path here is almost certainly a
  // copied execution config, and honouring it would overwrite the input.
  config_.hierarchy.capture_path.clear();
}

sim::RunResult ReplayDriver::run() {
  const sim::HierarchyConfig& hc = config_.hierarchy;
  sim::MemoryHierarchy hier(hc);
  TraceReader reader(config_.trace_path);

  drove_l2_stream_ = reader.has_l2_stream() && !hc.strikes.enabled &&
                     reader.line_bytes() == hc.l2.geometry.line_bytes &&
                     reader.l1_side_digest() == sim::l1_side_digest(hc);
  const Cycle reset_tick = drove_l2_stream_ ? drive_l2_stream(hier, reader)
                                            : drive_l1_events(hier, reader);
  const TraceSummary& s = reader.summary();
  hier.l2().finalize(s.end_tick);

  sim::RunResult r = sim::hierarchy_result(hier);
  if (drove_l2_stream_) {
    r.l1i = s.l1_side.l1i;
    r.l1d = s.l1_side.l1d;
    r.itlb = s.l1_side.itlb;
    r.dtlb = s.l1_side.dtlb;
    r.wbuf = s.l1_side.wbuf;
  }
  r.core.committed = s.committed;
  r.core.loads = s.loads;
  r.core.stores = s.stores;
  r.core.cycles = s.end_tick - reset_tick;
  events_ = reader.events_read();
  return r;
}

}  // namespace aeep::trace
