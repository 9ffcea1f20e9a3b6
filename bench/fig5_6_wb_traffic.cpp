// Figures 5 & 6: write-back traffic as a percentage of all loads/stores for
// each cleaning interval vs the original configuration, FP (Fig. 5) and INT
// (Fig. 6) benchmarks. The paper's finding: 1M-interval cleaning approaches
// org traffic (FP 1.13% vs 1.08%; INT 1.16% vs 1.12%), while aggressive
// small intervals inflate it with premature write-backs.
//
//   fig5_6_wb_traffic [--suite=fp|int|all] [--instructions=2M]
//                     [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  reject_unknown_flags(args);
  bench::print_header(
      "Figures 5/6: write-back traffic (% of loads/stores) vs interval", opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig5_6_wb_traffic", opt, jobs);

  const auto intervals = bench::cleaning_intervals();
  const std::size_t cols = intervals.size() + 1;  // ladder + "org"
  std::vector<std::string> header{"benchmark"};
  for (const u64 i : intervals) header.push_back(bench::interval_label(i));
  header.push_back("org");
  TextTable table(header);

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    for (std::size_t k = 0; k < cols; ++k) {
      sim::ExperimentOptions eo;
      eo.scheme = protect::SchemeKind::kNonUniform;
      eo.cleaning_interval = k < intervals.size() ? intervals[k] : 0;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = opt.warmup;
      eo.seed = opt.seed;
      bench::apply_frontend(eo, opt);
      grid.push_back({name, eo, bench::interval_label(eo.cleaning_interval)});
    }
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  std::vector<double> sums(cols, 0.0);
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row{benchmarks[b]};
    for (std::size_t k = 0; k < cols; ++k) {
      const sim::RunResult& r = results[b * cols + k];
      sums[k] += r.wb_per_ls();
      row.push_back(TextTable::pct(r.wb_per_ls(), 2));
      json.add_cell(benchmarks[b], grid[b * cols + k].tag,
                    sim::run_result_json(r));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (double s : sums)
    avg.push_back(TextTable::pct(s / static_cast<double>(benchmarks.size()), 2));
  table.add_row(std::move(avg));

  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper: 1M cleaning approaches org (fp: 1.13%% vs 1.08%%,"
      " int: 1.16%% vs 1.12%%); 64K is noticeably more aggressive.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
