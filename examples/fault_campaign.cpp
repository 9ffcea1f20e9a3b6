// Fault-injection campaign on a live cache image: warms a system up, then
// bombards the L2 arrays with random single/double bit flips, printing what
// the protection scheme did with each class of strike. Demonstrates the
// paper's guarantee: the proposed scheme matches uniform ECC's protection
// of dirty data while clean lines ride on parity + refetch.
//
//   ./fault_campaign --scheme=uniform|nonuniform|shared --benchmark=vpr
//                    --injections=5000
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const std::string bench = args.get("benchmark", "vpr");
  const std::string scheme_name = args.get("scheme", "shared");
  const u64 injections = args.get_u64("injections", 5000);

  sim::SystemConfig cfg;
  cfg.benchmark = bench;
  cfg.seed = args.get_u64("seed", 42);
  cfg.warmup_instructions = 0;
  cfg.instructions = parse_instructions(args, 500'000);
  cfg.hierarchy.l2.maintain_codes = true;
  cfg.hierarchy.l2.scheme = get_choice<protect::SchemeKind>(
      args, "scheme", "shared",
      {{"uniform", protect::SchemeKind::kUniformEcc},
       {"nonuniform", protect::SchemeKind::kNonUniform},
       {"shared", protect::SchemeKind::kSharedEccArray}});
  reject_unknown_flags(args);

  std::printf("warming %s on %s...\n", scheme_name.c_str(), bench.c_str());
  sim::System system(cfg);
  system.run();
  system.hierarchy().flush_write_buffer(system.core().now());
  std::printf("cache image: %llu dirty of %llu lines\n\n",
              static_cast<unsigned long long>(
                  system.hierarchy().l2().cache_model().dirty_count()),
              static_cast<unsigned long long>(
                  cfg.hierarchy.l2.geometry.total_lines()));

  for (const unsigned flips : {1u, 2u}) {
    fault::FaultCampaign campaign(system.hierarchy().l2(),
                                  cfg.seed + 100 + flips);
    for (u64 i = 0; i < injections; ++i) campaign.inject_anywhere(flips);
    const auto& t = campaign.tally();
    std::printf("--- %u-bit strikes, %llu injections ---\n", flips,
                static_cast<unsigned long long>(t.injections));
    TextTable table({"class", "count", "rate"});
    for (unsigned c = 0; c < fault::kNumFaultClasses; ++c) {
      const auto cls = static_cast<fault::FaultClass>(c);
      table.add_row({to_string(cls), std::to_string(t.of(cls)),
                     TextTable::pct(t.rate(cls), 3)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("expected: 1-bit strikes fully recovered; 2-bit strikes in\n"
              "dirty data detected (DUE), in clean data recovered by refetch\n"
              "(word parity misses same-word double flips on clean lines —\n"
              "the residual risk every parity-protected cache carries).\n");
  return 0;
}
