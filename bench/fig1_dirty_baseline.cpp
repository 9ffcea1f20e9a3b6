// Figure 1: percentage of dirty cache lines per cycle in the 1 MB 4-way L2
// under the conventional architecture (no cleaning, uniform ECC), for the
// 14 SPEC2000-like benchmarks. The paper reports a 51.6% average with
// apsi, mesa, gap and parser dirty-heavy.
//
//   fig1_dirty_baseline [--instructions=2M] [--warmup=2M] [--seed=42]
//                       [--jobs=N] [--json=out.json]
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  reject_unknown_flags(args);
  bench::print_header("Figure 1: dirty lines per cycle, baseline L2", opt);

  sim::ExperimentOptions eo;
  eo.scheme = protect::SchemeKind::kUniformEcc;
  eo.cleaning_interval = 0;
  eo.instructions = opt.instructions;
  eo.warmup_instructions = opt.warmup;
  eo.seed = opt.seed;
  bench::apply_frontend(eo, opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig1_dirty_baseline", opt, jobs);

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) grid.push_back({name, eo, "baseline"});
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "suite", "dirty lines/cycle", "avg dirty lines",
                   "L2 miss rate", "IPC"});
  double sum = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& r = results[i];
    sum += r.avg_dirty_fraction;
    const double l2_miss =
        r.l2.accesses() ? static_cast<double>(r.l2.misses()) /
                              static_cast<double>(r.l2.accesses())
                        : 0.0;
    table.add_row({benchmarks[i], r.floating_point ? "fp" : "int",
                   TextTable::pct(r.avg_dirty_fraction),
                   std::to_string(r.avg_dirty_lines),
                   TextTable::pct(l2_miss), TextTable::fmt(r.ipc(), 3)});
    json.add_cell(benchmarks[i], "baseline", sim::run_result_json(r));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage dirty lines/cycle: %s   (paper: 51.6%%)\n",
              TextTable::pct(sum / static_cast<double>(benchmarks.size()))
                  .c_str());
  return json.write(opt.json_path) ? 0 : 1;
}
