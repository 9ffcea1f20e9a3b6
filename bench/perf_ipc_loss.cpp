// §5.2 performance results: IPC loss of the full proposed scheme (shared
// ECC array + 1M cleaning) relative to the conventional configuration, from
// the extra write-back traffic on the split-transaction bus. The paper
// reports 0.14% (FP) and 0.65% (INT) average loss.
//
//   perf_ipc_loss [--instructions=2M] [--interval=1M]
//                 [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  bench::require_exec_frontend(opt, "IPC loss is a core-timing metric");
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("§5.2: IPC loss of the proposed scheme", opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("perf_ipc_loss", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    sim::ExperimentOptions org;
    org.scheme = protect::SchemeKind::kUniformEcc;
    org.instructions = opt.instructions;
    org.warmup_instructions = opt.warmup;
    org.seed = opt.seed;
    grid.push_back({name, org, "org"});

    sim::ExperimentOptions ours = org;
    ours.scheme = protect::SchemeKind::kSharedEccArray;
    ours.ecc_entries_per_set = 1;
    ours.cleaning_interval = interval;
    grid.push_back({name, ours, "proposed"});
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "suite", "IPC org", "IPC proposed", "loss"});
  double fp_loss = 0.0, int_loss = 0.0;
  unsigned fp_n = 0, int_n = 0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& o = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    const double loss = (o.ipc() - r.ipc()) / o.ipc();
    if (r.floating_point) {
      fp_loss += loss;
      ++fp_n;
    } else {
      int_loss += loss;
      ++int_n;
    }
    table.add_row({benchmarks[i], r.floating_point ? "fp" : "int",
                   TextTable::fmt(o.ipc(), 3), TextTable::fmt(r.ipc(), 3),
                   TextTable::pct(loss, 2)});
    json.add_cell(benchmarks[i], "org", sim::run_result_json(o));
    json.add_cell(benchmarks[i], "proposed", sim::run_result_json(r));
  }
  std::printf("%s", table.render().c_str());
  if (fp_n)
    std::printf("\naverage FP loss : %s  (paper: 0.14%%)",
                TextTable::pct(fp_loss / fp_n, 2).c_str());
  if (int_n)
    std::printf("\naverage INT loss: %s  (paper: 0.65%%)",
                TextTable::pct(int_loss / int_n, 2).c_str());
  std::printf("\n");
  return json.write(opt.json_path) ? 0 : 1;
}
