// Online error-recovery campaign: Poisson soft-error strikes plus a
// persistent stuck-at cell rain on the live L2 arrays *while* the workload
// runs. The recovery controller corrects, re-fetches, applies the DUE
// policy, and retires repeat-offender ways; this binary prints the whole
// story — strike counts, every recovery action, the MCA-style error log
// head, and the capacity the cache gave up to keep running.
//
//   ./recovery_campaign --benchmark=gzip --rate-scale=2e9 --mbu=0.25
//                       --threshold=4 --due-policy=drop|panic|poison
//                       --scheme=uniform|nonuniform|shared
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);

  sim::ExperimentOptions eo;
  const std::string bench = args.get("benchmark", "gzip");
  const std::string scheme_name = args.get("scheme", "shared");
  eo.scheme = get_choice<protect::SchemeKind>(
      args, "scheme", "shared",
      {{"uniform", protect::SchemeKind::kUniformEcc},
       {"nonuniform", protect::SchemeKind::kNonUniform},
       {"shared", protect::SchemeKind::kSharedEccArray}});
  eo.instructions = parse_instructions(args, 400'000);
  eo.warmup_instructions = args.get_u64("warmup", 0);
  eo.seed = args.get_u64("seed", 42);
  eo.cleaning_interval = args.get_u64("cleaning", u64{1} << 18);

  eo.strikes_enabled = true;
  eo.strike_rate_scale = args.get_double("rate-scale", 2e9);
  eo.strike_double_bit_fraction = args.get_double("mbu", 0.25);
  eo.retirement_threshold =
      static_cast<unsigned>(args.get_u64("threshold", 4));
  eo.due_policy = get_choice<protect::DuePolicy>(
      args, "due-policy", "drop",
      {{"drop", protect::DuePolicy::kDropRefetch},
       {"panic", protect::DuePolicy::kPanic},
       {"poison", protect::DuePolicy::kPoison}});
  reject_unknown_flags(args);

  // A permanently stuck data cell in each of four sets: every re-fetch of a
  // resident line re-corrupts, retries exhaust, and the fault map walks the
  // site over the retirement threshold.
  for (u64 set : {0u, 1u, 2u, 3u})
    eo.stuck_faults.push_back(
        {fault::FaultTarget::kData, set, /*way=*/0, /*bit=*/5,
         /*stuck_high=*/true, /*start=*/0, /*period=*/0});

  std::printf("online recovery campaign: %s on %s, DUE policy %s\n", bench.c_str(),
              scheme_name.c_str(), to_string(eo.due_policy));
  sim::System system(sim::make_system_config(bench, eo));
  const sim::RunResult r = system.run();

  std::printf("\nrun completed: %llu cycles, IPC %.3f%s\n",
              static_cast<unsigned long long>(r.core.cycles), r.ipc(),
              r.panicked ? "  [MACHINE-CHECK PANIC LATCHED]" : "");

  TextTable strikes({"strike process", "count"});
  strikes.add_row({"strikes", std::to_string(r.strikes.strikes)});
  strikes.add_row({"bits flipped", std::to_string(r.strikes.bits_flipped)});
  strikes.add_row({"data hits", std::to_string(r.strikes.data_hits)});
  strikes.add_row({"parity hits", std::to_string(r.strikes.parity_hits)});
  strikes.add_row({"ecc hits", std::to_string(r.strikes.ecc_hits)});
  strikes.add_row({"absorbed (dead cells)", std::to_string(r.strikes.absorbed)});
  strikes.add_row({"stuck-at re-asserts", std::to_string(r.strikes.stuck_reasserts)});
  std::printf("\n%s\n", strikes.render().c_str());

  const auto& rec = r.recovery;
  TextTable recov({"recovery controller", "count"});
  recov.add_row({"lines validated", std::to_string(rec.checks)});
  recov.add_row({"errors handled", std::to_string(rec.errors)});
  recov.add_row({"corrected + scrubbed", std::to_string(rec.corrected)});
  recov.add_row({"refetched (parity)", std::to_string(rec.refetched)});
  recov.add_row({"refetch retries", std::to_string(rec.retries)});
  recov.add_row({"retry budget exhausted", std::to_string(rec.retry_exhausted)});
  recov.add_row({"DUE events", std::to_string(rec.due_events)});
  recov.add_row({"lines dropped", std::to_string(rec.lines_dropped)});
  recov.add_row({"dirty data lost", std::to_string(rec.dirty_lines_lost)});
  recov.add_row({"lines poisoned", std::to_string(rec.lines_poisoned)});
  recov.add_row({"poison reads", std::to_string(rec.poison_reads)});
  recov.add_row({"recovery stall cycles", std::to_string(rec.stall_cycles)});
  std::printf("%s\n", recov.render().c_str());

  std::printf("graceful degradation: %llu way(s) retired (%.3f%% of capacity)\n",
              static_cast<unsigned long long>(r.retired_ways),
              100.0 * r.retired_capacity_fraction);

  const auto log = system.hierarchy().l2().recovery().error_log();
  const u64 dropped = system.hierarchy().l2().recovery().error_log_dropped();
  std::printf("\nMCA error log (%zu newest entries kept, %llu dropped):\n",
              log.size(), static_cast<unsigned long long>(dropped));
  TextTable tl({"cycle", "set", "way", "dirty", "outcome", "action", "retries"});
  const std::size_t show = log.size() < 12 ? log.size() : 12;
  for (std::size_t i = 0; i < show; ++i) {
    const auto& e = log[i];
    tl.add_row({std::to_string(e.cycle), std::to_string(e.set),
                std::to_string(e.way), e.was_dirty ? "y" : "n",
                to_string(e.outcome), to_string(e.action),
                std::to_string(e.retries)});
  }
  std::printf("%s\n", tl.render().c_str());
  return 0;
}
