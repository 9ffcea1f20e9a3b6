// Cleaning-interval tuner: the §5.1 methodology as a tool. For one
// benchmark, sweeps the cleaning interval and prints dirty-line residency,
// write-back traffic broken down by cause, and IPC — the trade-off a
// designer uses to pick the interval (the paper picks 1M for ~4K dirty
// lines with near-org traffic).
//
//   ./cleaning_tuner --benchmark=swim [--instructions=2M] [--scheme=nonuniform|shared]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const std::string bench = args.get("benchmark", "swim");
  const std::string scheme_name = args.get("scheme", "nonuniform");
  sim::ExperimentOptions base;
  base.instructions = args.get_u64("instructions", 2'000'000);
  base.warmup_instructions = args.get_u64("warmup", 2'000'000);
  base.seed = args.get_u64("seed", 42);
  base.scheme = get_choice<protect::SchemeKind>(
      args, "scheme", "nonuniform",
      {{"nonuniform", protect::SchemeKind::kNonUniform},
       {"shared", protect::SchemeKind::kSharedEccArray}});
  reject_unknown_flags(args);

  std::printf("cleaning-interval tuner: %s under %s\n\n", bench.c_str(),
              scheme_name.c_str());

  TextTable table({"interval", "dirty lines/cycle", "avg dirty lines",
                   "Clean-WB", "WB", "ECC-WB", "WB/(ld+st)", "IPC"});
  const std::vector<u64> intervals = {0,          u64{64} << 10, u64{256} << 10,
                                      u64{1} << 20, u64{2} << 20, u64{4} << 20};
  for (const u64 interval : intervals) {
    sim::ExperimentOptions eo = base;
    eo.cleaning_interval = interval;
    const sim::RunResult r = sim::run_benchmark(bench, eo);
    std::string label = "org";
    if (interval) {
      label = interval >= (u64{1} << 20)
                  ? std::to_string(interval >> 20) + "M"
                  : std::to_string(interval >> 10) + "K";
    }
    table.add_row({label, TextTable::pct(r.avg_dirty_fraction, 1),
                   std::to_string(r.avg_dirty_lines),
                   std::to_string(r.wb_cleaning),
                   std::to_string(r.wb_replacement), std::to_string(r.wb_ecc),
                   TextTable::pct(r.wb_per_ls(), 2),
                   TextTable::fmt(r.ipc(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npick the largest interval that still meets your dirty-line"
              " (ECC storage) target:\nsmaller intervals clean more but pay"
              " premature write-backs.\n");
  return 0;
}
