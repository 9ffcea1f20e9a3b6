// Ablation of the §3.3 ECC-array capacity: sweep the number of shared ECC
// entries per set (1 = the paper's design; 4 = ways is §3.1's non-uniform
// scheme, which SchemeKind::kNonUniform builds: an entry for every way, so
// no ECC-WB). More entries cost area linearly but reduce ECC-WB traffic;
// the paper's k=1 point trades a small traffic increase for the 4x ECC
// storage reduction.
//
//   ablation_ecc_entries [--interval=1M] [--suite=all]
//                        [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"
#include "protect/area_model.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Ablation: shared ECC array entries per set", opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("ablation_ecc_entries", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  const std::vector<unsigned> entry_counts = {1u, 2u, 4u};
  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const unsigned k : entry_counts) {
    for (const auto& name : benchmarks) {
      sim::ExperimentOptions eo;
      eo.scheme = protect::SchemeKind::kSharedEccArray;
      eo.ecc_entries_per_set = k;
      eo.cleaning_interval = interval;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = opt.warmup;
      eo.seed = opt.seed;
      grid.push_back({name, eo, "k=" + std::to_string(k)});
    }
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  const auto conv = protect::conventional_area(cache::kL2Geometry);
  TextTable table({"entries/set", "area", "reduction", "avg dirty%",
                   "avg ECC-WB/ls", "avg total WB/ls", "avg IPC"});
  const double n = static_cast<double>(benchmarks.size());
  for (std::size_t ki = 0; ki < entry_counts.size(); ++ki) {
    const unsigned k = entry_counts[ki];
    double dirty = 0, eccwb = 0, total = 0, ipc = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      const sim::RunResult& r = results[ki * benchmarks.size() + b];
      dirty += r.avg_dirty_fraction;
      const double ls = static_cast<double>(r.core.loads_stores());
      eccwb += ls ? static_cast<double>(r.wb_ecc) / ls : 0.0;
      total += r.wb_per_ls();
      ipc += r.ipc();
      json.add_cell(benchmarks[b], "k=" + std::to_string(k),
                    sim::run_result_json(r));
    }
    const auto area = protect::proposed_area(cache::kL2Geometry, k);
    table.add_row({std::to_string(k),
                   TextTable::fmt(area.total_kib(), 0) + "KB",
                   TextTable::pct(area.reduction_vs(conv), 1),
                   TextTable::pct(dirty / n, 1), TextTable::pct(eccwb / n, 2),
                   TextTable::pct(total / n, 2), TextTable::fmt(ipc / n, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nexpected: k=1 (the paper) minimises area; ECC-WB traffic"
              " shrinks as k grows.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
