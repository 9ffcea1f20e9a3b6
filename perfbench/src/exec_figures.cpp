// exec-figures: the paper's figure grid on the execution-driven frontend.
// Six benchmarks x {uniform ECC org, non-uniform @256K and @1M, shared ECC
// array (1 entry/set) @256K}, codes not maintained, caches warmed inside
// every cell, through a two-worker SweepRunner.
#include "common.hpp"
#include "probe.hpp"

namespace perfbench {

namespace {

/// Set-up: construct the machine (workload generator, hierarchy, core) of
/// every cell once. Returns the wall time.
double construct_machines(const std::vector<aeep::sim::SweepJob>& grid) {
  const auto t0 = aeep::metrics::now();
  for (const auto& job : grid) {
    const aeep::sim::System system(
        aeep::sim::make_system_config(job.benchmark, job.options));
  }
  return seconds_since(t0);
}

}  // namespace

void run_exec_figures(const Options& o, Report& report, Spans& spans) {
  const auto grid = exec_figures_grid(o.seed);
  const DigestTable table(o.digests_path, o.seed, o.bless);
  CellChecker checker("exec-figures", table);

  HostReference ref(o.trace ? 0 : kWorkers);
  std::vector<double> setup_s;
  do {
    setup_s.push_back(construct_machines(grid));
  } while (!o.trace && more_setups(setup_s));
  ref.sample_for(HostReference::kShare * sum(setup_s));

  if (!o.trace) {
    const RoundStats s =
        run_rounds(grid, o.seconds, checker, report, nullptr, ref);
    report_end_to_end(report, static_cast<double>(s.cells), s.wall_s,
                      s.cell_ms, setup_s, ref);
    if (o.bless) table.bless("exec-figures", checker.digests());
    return;
  }

  // Traced run: one pooled round (tracing off), the grid again solo on one
  // worker (tracing off), then every cell solo under the probes.
  const Spans::Id root = spans.reserve();
  const auto t0 = aeep::metrics::now();
  const RoundStats pooled = run_rounds(grid, 0.0, checker, report, &spans, ref);

  const auto s0 = aeep::metrics::now();
  const auto solo = aeep::sim::SweepRunner(1).run(grid);
  spans.record("sim.SweepRunner.run serial", s0, aeep::metrics::now(), root);

  LayerTotals totals;
  SimCounts counts;
  double solo_s = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    solo_s += solo[i].wall_seconds;
    const TracedCell tc =
        run_traced_exec(grid[i], o.seed * 1000 + i, totals, spans, root);
    const std::string diff =
        pooled.first[i].ok()
            ? compare_results(tc.result, pooled.first[i].result, Same::kAll)
            : "untraced cell failed";
    report.op(diff.empty(), grid[i].tag + ": traced run differs: " + diff);
    counts.add(tc.result);
    counts.inspections += static_cast<double>(tc.inspections);
    counts.silent_elided += static_cast<double>(tc.silent_elided);
  }
  spans.record_as(root, "exec-figures traced run", t0, aeep::metrics::now());
  totals.untraced_wall_s = solo_s;
  totals.report(report, /*exec=*/true);
  counts.report(report);
  report.metric("sim.sweep.occupancy", pooled.occupancy(), "ratio");
  report.metric("sim.sweep.cell_inflation",
                solo_s > 0 ? pooled.busy_s / solo_s : 0.0, "ratio");
}

}  // namespace perfbench
