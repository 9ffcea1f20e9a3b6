// Online recovery under live strike pressure: sweep the accelerated strike
// rate across the three protection schemes and measure what error handling
// costs while the workload runs — recovery outcomes, the IPC lost to
// correction stalls / re-fetch round trips / recovery re-fills, and the
// capacity surrendered to way retirement.
//
// The rate-scale ladder multiplies the raw 90nm-class per-bit strike rate
// (~1e-19 per bit-cycle) up to where a ~10^6-cycle run sees real work; 0 is
// the strike-free baseline each scheme's IPC delta is measured against.
//
//   online_recovery [--benchmark=gzip] [--instructions=400K] [--mbu=0.25]
//                   [--threshold=8] [--due-policy=drop|panic|poison]
//                   [--jobs=N] [--json=out.json]
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

namespace {

std::string rate_label(double scale) {
  if (scale <= 0.0) return "off";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0e", scale);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  // It runs --benchmark alone from a cold start and opens no store, so
  // --suite, --store and --warmup are not read (and exit 2).
  bench::CommonOptions opt;
  opt.instructions = parse_instructions(args, 400'000);
  opt.warmup = 0;
  opt.seed = args.get_u64("seed", opt.seed);
  opt.jobs = static_cast<unsigned>(args.get_u64("jobs", opt.jobs));
  opt.json_path = args.get("json", "");
  const std::string bench_name = args.get("benchmark", "gzip");
  const double mbu = args.get_double("mbu", 0.25);
  const unsigned threshold =
      static_cast<unsigned>(args.get_u64("threshold", 8));
  const protect::DuePolicy policy = get_choice<protect::DuePolicy>(
      args, "due-policy", "drop",
      {{"drop", protect::DuePolicy::kDropRefetch},
       {"panic", protect::DuePolicy::kPanic},
       {"poison", protect::DuePolicy::kPoison}});
  reject_unknown_flags(args);
  const unsigned jobs = bench::resolve_jobs(opt);
  bench::print_header("Online recovery: strike-rate sweep", opt, jobs);
  std::printf("benchmark %s, MBU fraction %.2f, retirement threshold %u, "
              "DUE policy %s\n\n",
              bench_name.c_str(), mbu, threshold, to_string(policy));

  bench::JsonReporter json("online_recovery", opt, jobs);
  json.set_config("suite", JsonValue::null());  // it runs --benchmark alone
  json.set_config("benchmark", JsonValue::string(bench_name));
  json.set_config("mbu", JsonValue::number(mbu));
  json.set_config("threshold", JsonValue::number(u64{threshold}));
  json.set_config("due_policy", JsonValue::string(to_string(policy)));

  const std::vector<double> ladder = {0.0, 5e8, 2e9, 8e9};
  const std::vector<std::pair<protect::SchemeKind, const char*>> schemes = {
      {protect::SchemeKind::kUniformEcc, "uniform-ecc"},
      {protect::SchemeKind::kNonUniform, "non-uniform"},
      {protect::SchemeKind::kSharedEccArray, "shared-ecc"},
  };

  std::vector<sim::SweepJob> grid;
  for (const auto& [scheme, name] : schemes) {
    for (double scale : ladder) {
      sim::ExperimentOptions eo;
      eo.scheme = scheme;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = 0;  // strike stats accumulate from cycle 0
      eo.seed = opt.seed;
      eo.cleaning_interval = u64{1} << 18;
      eo.strikes_enabled = scale > 0.0;
      eo.strike_rate_scale = scale;
      eo.strike_double_bit_fraction = mbu;
      eo.retirement_threshold = threshold;
      eo.due_policy = policy;
      grid.push_back(
          {bench_name, eo, std::string(name) + "@" + rate_label(scale)});
    }
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable t({"scheme", "rate", "IPC", "dIPC%", "corr", "refetch", "DUE",
               "dropped", "retired", "stall-cyc"});
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    double base_ipc = 0.0;
    for (std::size_t l = 0; l < ladder.size(); ++l) {
      const sim::RunResult& r = results[s * ladder.size() + l];
      const double scale = ladder[l];
      const double ipc = r.ipc();
      if (scale == 0.0) base_ipc = ipc;
      const double dipc =
          base_ipc > 0.0 ? 100.0 * (ipc - base_ipc) / base_ipc : 0.0;
      const auto& rec = r.recovery;
      t.add_row({schemes[s].second, rate_label(scale), TextTable::fmt(ipc, 3),
                 TextTable::fmt(dipc, 2), std::to_string(rec.corrected),
                 std::to_string(rec.refetched), std::to_string(rec.due_events),
                 std::to_string(rec.lines_dropped),
                 std::to_string(r.retired_ways),
                 std::to_string(rec.stall_cycles)});
      json.add_cell(bench_name, grid[s * ladder.size() + l].tag,
                    sim::run_result_json(r));
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("dIPC%% is relative to the same scheme with strikes off; the\n"
              "loss combines recovery stalls, re-fetch bus traffic, and the\n"
              "misses added by dropped lines and retired capacity.\n");
  return json.write(opt.json_path) ? 0 : 1;
}
