// Figures 3 & 4: percentage of dirty cache lines per cycle for different
// cleaning intervals (64K, 256K, 1M, 4M processor cycles), plus the original
// no-cleaning configuration ("org"), for the FP (Fig. 3) and INT (Fig. 4)
// benchmarks. The paper's finding: smaller intervals reduce the dirty
// percentage roughly linearly; streaming codes see little benefit at 4M.
//
//   fig3_4_cleaning_sweep [--suite=fp|int|all] [--instructions=2M]
//                         [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  reject_unknown_flags(args);
  bench::print_header(
      "Figures 3/4: dirty lines per cycle vs cleaning interval", opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig3_4_cleaning_sweep", opt, jobs);

  const auto intervals = bench::cleaning_intervals();
  const std::size_t cols = intervals.size() + 1;  // ladder + "org"
  std::vector<std::string> header{"benchmark"};
  for (const u64 i : intervals) header.push_back(bench::interval_label(i));
  header.push_back("org");
  TextTable table(header);

  // Whole grid up front: benchmarks × (ladder + org), fanned out at once so
  // the pool is never starved between table rows.
  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    for (std::size_t k = 0; k < cols; ++k) {
      sim::ExperimentOptions eo;
      eo.scheme = protect::SchemeKind::kNonUniform;  // unlimited ECC: isolates cleaning
      eo.cleaning_interval = k < intervals.size() ? intervals[k] : 0;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = opt.warmup;
      eo.seed = opt.seed;
      bench::apply_frontend(eo, opt);
      grid.push_back({name, eo, bench::interval_label(eo.cleaning_interval)});
    }
  }
  std::vector<double> cell_walls;
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid, &cell_walls);

  std::vector<double> sums(cols, 0.0);
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row{benchmarks[b]};
    for (std::size_t k = 0; k < cols; ++k) {
      const sim::RunResult& r = results[b * cols + k];
      sums[k] += r.avg_dirty_fraction;
      row.push_back(TextTable::pct(r.avg_dirty_fraction, 1));
      json.add_cell(benchmarks[b], grid[b * cols + k].tag,
                    sim::run_result_json(r), cell_walls[b * cols + k]);
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (double s : sums)
    avg.push_back(TextTable::pct(s / static_cast<double>(benchmarks.size()), 1));
  table.add_row(std::move(avg));

  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper: dirty%% falls roughly linearly with smaller intervals;\n"
      "       ~2K dirty lines (12.5%%) needs ~256K, ~4K lines (25%%) ~1M.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
