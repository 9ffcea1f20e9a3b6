// Figure 7: percentage of dirty cache lines per cycle under the full
// proposed scheme — 1M-cycle dirty-line cleaning plus the shared ECC array
// with one entry per set. The paper's finding: every benchmark drops below
// 25% (the array caps dirty lines at one per set = 4K of 16K lines), and the
// dirty-heavy benchmarks (apsi, mesa, gap, parser) collapse because ECC
// entry evictions clean them.
//
//   fig7_dirty_full_scheme [--instructions=2M] [--interval=1M]
//                          [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Figure 7: dirty lines per cycle, full proposed scheme",
                      opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig7_dirty_full_scheme", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  // Two cells per benchmark: conventional baseline and the full scheme.
  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    sim::ExperimentOptions base;
    base.scheme = protect::SchemeKind::kUniformEcc;
    base.instructions = opt.instructions;
    base.warmup_instructions = opt.warmup;
    base.seed = opt.seed;
    grid.push_back({name, base, "baseline"});

    sim::ExperimentOptions ours = base;
    ours.scheme = protect::SchemeKind::kSharedEccArray;
    ours.ecc_entries_per_set = 1;
    ours.cleaning_interval = interval;
    grid.push_back({name, ours, "proposed"});
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "suite", "baseline dirty", "proposed dirty",
                   "peak dirty lines"});
  double sum = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& b = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    sum += r.avg_dirty_fraction;
    table.add_row({benchmarks[i], r.floating_point ? "fp" : "int",
                   TextTable::pct(b.avg_dirty_fraction, 1),
                   TextTable::pct(r.avg_dirty_fraction, 1),
                   std::to_string(r.peak_dirty_lines)});
    json.add_cell(benchmarks[i], "baseline", sim::run_result_json(b));
    json.add_cell(benchmarks[i], "proposed", sim::run_result_json(r));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage proposed dirty: %s   (paper: below 25%% everywhere;"
              " 4K-line hard cap = 25%%)\n",
              TextTable::pct(sum / static_cast<double>(benchmarks.size()), 1)
                  .c_str());
  return json.write(opt.json_path) ? 0 : 1;
}
