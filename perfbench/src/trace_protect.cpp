// trace-protect: the trace frontend with check bits maintained. Set-up
// captures one trace per benchmark under the shared-ECC @256K config; the
// grid replays them across every scheme x (cleaning ladder x policies +
// org). The core does no work here: L1, write buffer, L2, scheme,
// cleaning FSM and codec do all of it.
#include <filesystem>

#include "common.hpp"
#include "probe.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// The replay of each benchmark under its own capture configuration must
/// reproduce the capture run bit-for-bit.
void check_self_replay(const Capture& c,
                       const std::vector<aeep::sim::SweepJob>& grid,
                       const std::vector<aeep::sim::SweepOutcome>& replays,
                       Report& rep) {
  for (std::size_t k = 0; k < c.jobs.size(); ++k) {
    const std::string want =
        cell_key(c.jobs[k].benchmark, c.jobs[k].options);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].tag != want) continue;
      const std::string diff =
          c.runs[k].ok() && replays[i].ok()
              ? compare_results(replays[i].result, c.runs[k].result,
                                Same::kCapture)
              : "a run failed";
      rep.op(diff.empty(), want + ": replay differs from capture: " + diff);
    }
  }
}

}  // namespace

Capture capture_traces(const Options& o, Report& rep, CellSize size) {
  Capture c;
  c.dir = o.out_dir + "/traces";
  const std::string& dir = c.dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  c.jobs = capture_grid(o.seed, dir, size);
  const auto t0 = aeep::metrics::now();
  c.runs = aeep::sim::SweepRunner(kWorkers).run(c.jobs);
  c.seconds = seconds_since(t0);
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    const auto& out = c.runs[i];
    const std::string why =
        out.ok() ? check_invariants(out.result, c.jobs[i].options)
                 : "threw: " + out.error;
    rep.op(why.empty(), c.jobs[i].tag + ": " + why);
  }
  return c;
}

void run_trace_protect(const Options& o, Report& report, Spans& spans) {
  const DigestTable table(o.digests_path, o.seed, o.bless);
  CellChecker checker("trace-protect", table);
  HostReference ref(o.trace ? 0 : kWorkers);
  std::vector<double> setup_s;
  Capture c;
  do {
    c = capture_traces(o, report, kGridCell);
    setup_s.push_back(c.seconds);
  } while (!o.trace && more_setups(setup_s));
  ref.sample_for(HostReference::kShare * sum(setup_s));
  const auto grid = trace_protect_grid(o.seed, c.dir, kGridCell);

  if (!o.trace) {
    const RoundStats s =
        run_rounds(grid, o.seconds, checker, report, nullptr, ref);
    check_self_replay(c, grid, s.first, report);
    report_end_to_end(report, static_cast<double>(s.cells), s.wall_s,
                      s.cell_ms, setup_s, ref);
    if (o.bless) table.bless("trace-protect", checker.digests());
    return;
  }

  // Traced run: one pooled round (tracing off); every cell solo through
  // trace::ReplayDriver::run, timed from outside; every cell solo under
  // the memory probe.
  const Spans::Id root = spans.reserve();
  const auto t0 = aeep::metrics::now();
  const RoundStats pooled = run_rounds(grid, 0.0, checker, report, &spans, ref);
  check_self_replay(c, grid, pooled.first, report);

  double replay_s = 0;
  u64 events = 0;
  for (const auto& job : grid) {
    aeep::trace::ReplayConfig rc;
    rc.hierarchy =
        aeep::sim::make_system_config(job.benchmark, job.options).hierarchy;
    rc.trace_path = aeep::sim::trace_path_for(job.benchmark, job.options);
    aeep::trace::ReplayDriver driver(std::move(rc));
    const auto r0 = aeep::metrics::now();
    (void)driver.run();
    const auto r1 = aeep::metrics::now();
    spans.record("trace.ReplayDriver.run " + job.tag, r0, r1, root);
    replay_s += aeep::metrics::seconds_between(r0, r1);
    events += driver.events_replayed();
  }

  LayerTotals totals;
  SimCounts counts;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const TracedCell tc =
        run_traced_replay(grid[i], o.seed * 1000 + i, totals, spans, root);
    const std::string diff =
        pooled.first[i].ok()
            ? compare_results(tc.result, pooled.first[i].result,
                              Same::kReplay)
            : "untraced cell failed";
    report.op(diff.empty(), grid[i].tag + ": traced run differs: " + diff);
    counts.add(pooled.first[i].result);
    counts.inspections += static_cast<double>(tc.inspections);
    counts.silent_elided += static_cast<double>(tc.silent_elided);
  }
  spans.record_as(root, "trace-protect traced run", t0, aeep::metrics::now());
  totals.untraced_wall_s = replay_s;
  totals.report(report, /*exec=*/false);
  counts.report(report);
  report.metric("trace.replay_s", replay_s, "s");
  report.metric("trace.events", static_cast<double>(events), "count");
  report.metric("trace.ns_per_event",
                events ? replay_s * 1e9 / static_cast<double>(events) : 0.0,
                "ns");
  report.metric("sim.sweep.occupancy", pooled.occupancy(), "ratio");
  report.metric("sim.sweep.cell_inflation",
                replay_s > 0 ? pooled.busy_s / replay_s : 0.0, "ratio");
}

}  // namespace perfbench
