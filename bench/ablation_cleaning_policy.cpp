// Ablation: cleaning-policy comparison at a fixed interval — the paper's
// written-bit heuristic vs naive write-back-everything, a cache-decay-style
// 2-bit counter (Kaxiras et al., the paper's inspiration), and eager
// write-back on an idle bus (Lee et al., cited as related work). Shows the
// dirty%-vs-traffic frontier each policy reaches.
//
//   ablation_cleaning_policy [--interval=1M] [--suite=all]
//                            [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Ablation: cleaning policies", opt);
  std::printf("cleaning interval: %s cycles\n\n",
              bench::interval_label(interval).c_str());

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("ablation_cleaning_policy", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  struct Policy {
    protect::CleaningPolicy kind;
    unsigned decay_threshold;
    std::string label;
  };
  std::vector<Policy> policies = {
      {protect::CleaningPolicy::kWrittenBit, 2, ""},
      {protect::CleaningPolicy::kNaive, 2, ""},
      {protect::CleaningPolicy::kDecayCounter, 2, ""},
      {protect::CleaningPolicy::kDecayCounter, 4, ""},
      {protect::CleaningPolicy::kEagerIdle, 2, ""},
  };
  for (auto& pol : policies) {
    pol.label = to_string(pol.kind);
    if (pol.kind == protect::CleaningPolicy::kDecayCounter)
      pol.label += "(t=" + std::to_string(pol.decay_threshold) + ")";
  }

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& pol : policies) {
    for (const auto& name : benchmarks) {
      sim::ExperimentOptions eo;
      eo.scheme = protect::SchemeKind::kNonUniform;
      eo.cleaning_interval = interval;
      eo.cleaning_policy = pol.kind;
      eo.decay_threshold = pol.decay_threshold;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = opt.warmup;
      eo.seed = opt.seed;
      bench::apply_frontend(eo, opt);
      grid.push_back({name, eo, pol.label});
    }
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"policy", "avg dirty%", "Clean-WB/ls", "total WB/ls",
                   "avg IPC"});
  const double n = static_cast<double>(benchmarks.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    double dirty = 0, cleanwb = 0, total = 0, ipc = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      const sim::RunResult& r = results[p * benchmarks.size() + b];
      dirty += r.avg_dirty_fraction;
      const double ls = static_cast<double>(r.core.loads_stores());
      cleanwb += ls ? static_cast<double>(r.wb_cleaning) / ls : 0.0;
      total += r.wb_per_ls();
      ipc += r.ipc();
      json.add_cell(benchmarks[b], policies[p].label,
                    sim::run_result_json(r));
    }
    table.add_row({policies[p].label, TextTable::pct(dirty / n, 1),
                   TextTable::pct(cleanwb / n, 2), TextTable::pct(total / n, 2),
                   TextTable::fmt(ipc / n, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nwritten-bit is the paper's 1-bit decay counter: nearly the"
              " dirty reduction of naive cleaning\nwith less premature"
              " traffic; higher decay thresholds trade dirty%% for traffic.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
