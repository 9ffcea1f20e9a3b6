// Figure 8: write-back traffic (% of loads/stores) under the full scheme,
// split into Clean-WB (dirty-line cleaning), WB (normal replacement
// write-backs) and ECC-WB (ECC-entry evictions). The paper's finding:
// ECC-WB dominates; totals average 1.20% (FP) and 1.19% (INT) vs the
// original 1.08% / 1.12% — a small increase.
//
//   fig8_wb_breakdown [--instructions=2M] [--interval=1M]
//                     [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Figure 8: write-back breakdown, full proposed scheme",
                      opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig8_wb_breakdown", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    sim::ExperimentOptions org;
    org.scheme = protect::SchemeKind::kUniformEcc;
    org.instructions = opt.instructions;
    org.warmup_instructions = opt.warmup;
    org.seed = opt.seed;
    bench::apply_frontend(org, opt);
    grid.push_back({name, org, "org"});

    sim::ExperimentOptions ours = org;
    ours.scheme = protect::SchemeKind::kSharedEccArray;
    ours.ecc_entries_per_set = 1;
    ours.cleaning_interval = interval;
    grid.push_back({name, ours, "proposed"});
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "suite", "Clean-WB", "WB", "ECC-WB", "total",
                   "org total"});
  double sum_total = 0.0, sum_org = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& o = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    const double ls = static_cast<double>(r.core.loads_stores());
    auto pct_of_ls = [&](u64 n) {
      return ls ? static_cast<double>(n) / ls : 0.0;
    };
    sum_total += r.wb_per_ls();
    sum_org += o.wb_per_ls();
    table.add_row({benchmarks[i], r.floating_point ? "fp" : "int",
                   TextTable::pct(pct_of_ls(r.wb_cleaning), 2),
                   TextTable::pct(pct_of_ls(r.wb_replacement), 2),
                   TextTable::pct(pct_of_ls(r.wb_ecc), 2),
                   TextTable::pct(r.wb_per_ls(), 2),
                   TextTable::pct(o.wb_per_ls(), 2)});
    json.add_cell(benchmarks[i], "org", sim::run_result_json(o));
    json.add_cell(benchmarks[i], "proposed", sim::run_result_json(r));
  }
  std::printf("%s", table.render().c_str());
  const double n = static_cast<double>(benchmarks.size());
  std::printf("\naverage total: %s vs org %s   (paper: 1.20%%/1.19%% vs"
              " 1.08%%/1.12%%; ECC-WB dominates)\n",
              TextTable::pct(sum_total / n, 2).c_str(),
              TextTable::pct(sum_org / n, 2).c_str());
  return json.write(opt.json_path) ? 0 : 1;
}
