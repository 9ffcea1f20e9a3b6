// Ablation of the §3.2 written-bit heuristic: compare cleaning that only
// writes back dirty lines whose written bit is clear (the paper's design)
// against naive cleaning that writes back every dirty line it inspects.
// The written bit should achieve nearly the same dirty-line reduction with
// markedly less premature write-back traffic on rewrite-heavy workloads.
//
//   ablation_written_bit [--interval=1M] [--suite=all]
//                        [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Ablation: written-bit heuristic vs naive cleaning",
                      opt);
  std::printf("cleaning interval: %s cycles\n\n",
              bench::interval_label(interval).c_str());

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("ablation_written_bit", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    sim::ExperimentOptions eo;
    eo.scheme = protect::SchemeKind::kNonUniform;
    eo.cleaning_interval = interval;
    eo.instructions = opt.instructions;
    eo.warmup_instructions = opt.warmup;
    eo.seed = opt.seed;

    eo.cleaning_policy = protect::CleaningPolicy::kWrittenBit;
    grid.push_back({name, eo, "written-bit"});
    eo.cleaning_policy = protect::CleaningPolicy::kNaive;
    grid.push_back({name, eo, "naive"});
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "dirty% written-bit", "dirty% naive",
                   "WB/ls written-bit", "WB/ls naive"});
  double sd_wb = 0, sd_nv = 0, st_wb = 0, st_nv = 0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& with_bit = results[2 * i];
    const sim::RunResult& naive = results[2 * i + 1];
    sd_wb += with_bit.avg_dirty_fraction;
    sd_nv += naive.avg_dirty_fraction;
    st_wb += with_bit.wb_per_ls();
    st_nv += naive.wb_per_ls();
    table.add_row({benchmarks[i], TextTable::pct(with_bit.avg_dirty_fraction, 1),
                   TextTable::pct(naive.avg_dirty_fraction, 1),
                   TextTable::pct(with_bit.wb_per_ls(), 2),
                   TextTable::pct(naive.wb_per_ls(), 2)});
    json.add_cell(benchmarks[i], "written-bit",
                  sim::run_result_json(with_bit));
    json.add_cell(benchmarks[i], "naive", sim::run_result_json(naive));
  }
  const double n = static_cast<double>(benchmarks.size());
  table.add_row({"average", TextTable::pct(sd_wb / n, 1),
                 TextTable::pct(sd_nv / n, 1), TextTable::pct(st_wb / n, 2),
                 TextTable::pct(st_nv / n, 2)});
  std::printf("%s", table.render().c_str());
  std::printf("\nexpected: similar dirty%% but naive cleaning pays more"
              " write-back traffic on rewrite-heavy codes.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
