// Fault-injection validation (the executable form of §2/§3's protection
// claims): run a benchmark under each scheme with real check bits, then
// inject single- and double-bit flips into the L2 data / parity / ECC
// arrays and classify what the scheme's read path does with them.
//
// Expected: under the proposed scheme every single-bit flip is recovered
// (dirty lines by SECDED correction, clean lines by parity + refetch), and
// double-bit flips in dirty data are detected (DUE) — identical guarantees
// to uniform ECC at 59% less storage. A parity-only L2 (no ECC anywhere)
// would instead lose dirty data silently or unrecoverably.
//
//   fault_injection [--injections=2000] [--instructions=500K] ...
#include "bench_util.hpp"
#include "fault/injector.hpp"

using namespace aeep;

namespace {

/// The run whose warm L2 the campaigns strike: real check bits, no
/// cleaning.
sim::SystemConfig campaign_config(const std::string& bench_name,
                                  protect::SchemeKind scheme,
                                  const bench::RunOptions& opt) {
  sim::SystemConfig cfg;
  cfg.benchmark = bench_name;
  cfg.seed = opt.seed;
  cfg.instructions = opt.instructions;
  cfg.warmup_instructions = opt.warmup;
  cfg.hierarchy.l2.scheme = scheme;
  cfg.hierarchy.l2.cleaning_interval = 0;
  cfg.hierarchy.l2.maintain_codes = true;  // real codes required
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  bench::RunOptions opt = bench::parse_run(args);
  opt.instructions = parse_instructions(args, 500'000);
  opt.warmup = args.get_u64("warmup", 200'000);
  const u64 injections = args.get_u64("injections", 2000);
  const std::string bench_name = args.get("benchmark", "gzip");
  reject_unknown_flags(args);
  bench::print_header("Fault injection: protection guarantees", opt);
  std::printf("benchmark %s, %llu injections per cell\n\n", bench_name.c_str(),
              static_cast<unsigned long long>(injections));

  const std::vector<std::pair<std::string, protect::SchemeKind>> schemes = {
      {"uniform-ecc (conventional)", protect::SchemeKind::kUniformEcc},
      {"shared-ecc-array (proposed)", protect::SchemeKind::kSharedEccArray},
      {"non-uniform (unbounded ECC)", protect::SchemeKind::kNonUniform},
  };

  for (const auto& [label, kind] : schemes) {
    std::printf("--- %s ---\n", label.c_str());
    TextTable table({"fault", "injections", "recovered", "DUE", "SDC",
                     "miscorrected", "dirty hit%"});
    // One warm image serves every campaign: inject() restores the payload
    // and re-encodes the codes of each line it strikes.
    sim::System system(campaign_config(bench_name, kind, opt));
    system.run();
    system.hierarchy().flush_write_buffer(system.core().now());
    for (const auto target :
         {fault::FaultTarget::kData, fault::FaultTarget::kParity,
          fault::FaultTarget::kEcc}) {
      for (const unsigned flips : {1u, 2u}) {
        fault::FaultCampaign campaign(system.hierarchy().l2(), opt.seed + 7);
        for (u64 i = 0; i < injections; ++i) campaign.inject(target, flips);
        const auto& t = campaign.tally();
        if (t.injections == 0) continue;  // target absent in scheme
        table.add_row(
            {std::string(to_string(target)) + " x" + std::to_string(flips),
             std::to_string(t.injections),
             TextTable::pct(t.rate(fault::FaultClass::kRecovered), 2),
             TextTable::pct(t.rate(fault::FaultClass::kDetectedUnrecoverable), 2),
             TextTable::pct(t.rate(fault::FaultClass::kSilentCorruption), 2),
             TextTable::pct(t.rate(fault::FaultClass::kMiscorrected), 2),
             TextTable::pct(t.injections
                                ? static_cast<double>(t.dirty_line_hits) /
                                      static_cast<double>(t.injections)
                                : 0.0,
                            1)});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("expected: single-bit faults 100%% recovered under every scheme;"
              "\n          double-bit data faults -> DUE on dirty lines,"
              " refetch-recovered on clean lines.\n");
  return 0;
}
