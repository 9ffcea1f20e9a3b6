// Quickstart: run one SPEC2000-like benchmark on the Table-1 machine under
// the paper's full protection scheme (parity + shared ECC array + 1M-cycle
// dirty-line cleaning) and print the headline metrics next to the
// conventional uniform-ECC baseline.
//
//   ./quickstart [--benchmark=gzip] [--instructions=2M] [--interval=1M]
#include <cstdio>

#include "common/cli.hpp"
#include "protect/area_model.hpp"
#include "sim/experiment.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const std::string bench = args.get("benchmark", "gzip");
  sim::ExperimentOptions base;
  base.instructions = parse_instructions(args, 2'000'000);
  base.warmup_instructions = args.get_u64("warmup", 2'000'000);
  base.seed = args.get_u64("seed", 42);
  const Cycle interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);

  std::printf("%s\n", sim::table1_text().c_str());
  std::printf("benchmark: %s, %llu committed micro-ops\n\n", bench.c_str(),
              static_cast<unsigned long long>(base.instructions));

  // Conventional baseline: uniform ECC, no cleaning.
  sim::ExperimentOptions conv = base;
  conv.scheme = protect::SchemeKind::kUniformEcc;
  const sim::RunResult org = sim::run_benchmark(bench, conv);

  // The paper's scheme: shared ECC array (1 entry/set) + 1M-cycle cleaning.
  sim::ExperimentOptions ours = base;
  ours.scheme = protect::SchemeKind::kSharedEccArray;
  ours.cleaning_interval = interval;
  const sim::RunResult prop = sim::run_benchmark(bench, ours);

  auto show = [](const char* label, const sim::RunResult& r) {
    std::printf("%-14s IPC %.3f | dirty lines/cycle %5.1f%% | WB/(ld+st) %.3f%%"
                " [WB %llu, Clean-WB %llu, ECC-WB %llu]\n",
                label, r.ipc(), 100.0 * r.avg_dirty_fraction,
                100.0 * r.wb_per_ls(),
                static_cast<unsigned long long>(r.wb_replacement),
                static_cast<unsigned long long>(r.wb_cleaning),
                static_cast<unsigned long long>(r.wb_ecc));
  };
  show("conventional", org);
  show("proposed", prop);

  const auto conv_area = protect::conventional_area(cache::kL2Geometry);
  const auto prop_area = protect::proposed_area(cache::kL2Geometry, 1);
  std::printf("\nprotection area: %.0fKB -> %.0fKB (%.0f%% reduction)\n",
              conv_area.total_kib(), prop_area.total_kib(),
              100.0 * prop_area.reduction_vs(conv_area));
  std::printf("IPC loss: %.2f%%\n",
              100.0 * (org.ipc() - prop.ipc()) / org.ipc());
  return 0;
}
