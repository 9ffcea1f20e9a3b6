// Protection-design explorer: compares the three schemes side by side on a
// chosen benchmark and geometry — storage overhead, dirty-line residency,
// traffic, and IPC — the decision table an SoC architect would want before
// adopting the paper's scheme for their L2.
//
//   ./protection_explorer --benchmark=gcc [--l2kb=1024] [--ways=4] [--interval=1M]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "protect/area_model.hpp"
#include "sim/experiment.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const std::string bench = args.get("benchmark", "gcc");
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  const u64 l2kb = args.get_u64("l2kb", 1024);
  const unsigned ways = static_cast<unsigned>(args.get_u64("ways", 4));

  const cache::CacheGeometry geom{l2kb * KiB, ways, 64};
  geom.validate();

  sim::ExperimentOptions base;
  base.instructions = args.get_u64("instructions", 1'000'000);
  base.warmup_instructions = args.get_u64("warmup", 1'000'000);
  base.seed = args.get_u64("seed", 42);
  reject_unknown_flags(args);

  struct Variant {
    const char* label;
    protect::SchemeKind scheme;
    Cycle interval;
    protect::AreaReport area;
  };
  const auto conv_area = protect::conventional_area(geom);
  std::vector<Variant> variants = {
      {"uniform ECC (baseline)", protect::SchemeKind::kUniformEcc, 0,
       conv_area},
      {"non-uniform, no cleaning", protect::SchemeKind::kNonUniform, 0,
       protect::non_uniform_area(geom, 1.0)},  // provisioned after the run
      {"non-uniform + cleaning", protect::SchemeKind::kNonUniform, interval,
       protect::non_uniform_area(geom, 1.0)},
      {"shared ECC array + cleaning", protect::SchemeKind::kSharedEccArray,
       interval, protect::proposed_area(geom, 1)},
  };

  std::printf("protection explorer: %s on %lluKB %u-way L2, interval %lluK\n\n",
              bench.c_str(), static_cast<unsigned long long>(l2kb), ways,
              static_cast<unsigned long long>(interval >> 10));

  TextTable table({"scheme", "area", "vs base", "dirty%", "WB/(ld+st)",
                   "IPC"});
  for (auto& v : variants) {
    sim::ExperimentOptions eo = base;
    eo.scheme = v.scheme;
    eo.cleaning_interval = v.interval;
    auto cfg = sim::make_system_config(bench, eo);
    cfg.hierarchy.l2.geometry = geom;
    sim::System system(cfg);
    const sim::RunResult r = system.run();
    // Non-uniform storage must be provisioned for the observed peak.
    protect::AreaReport area = v.area;
    if (v.scheme == protect::SchemeKind::kNonUniform) {
      area = protect::non_uniform_area(
          geom, static_cast<double>(r.peak_dirty_lines) /
                    static_cast<double>(geom.total_lines()));
    }
    table.add_row({v.label, TextTable::fmt(area.total_kib(), 1) + "KB",
                   TextTable::pct(area.reduction_vs(conv_area), 1),
                   TextTable::pct(r.avg_dirty_fraction, 1),
                   TextTable::pct(r.wb_per_ls(), 2),
                   TextTable::fmt(r.ipc(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n'vs base' is the storage saved relative to uniform ECC;\n"
              "non-uniform rows are provisioned for the peak dirty count the"
              " run observed.\n");
  return 0;
}
