// aeep_modelcheck — differential model checker for the protection schemes.
//
// Default mode runs the full campaign on a tiny 4-set x 2-way x 2-word L2:
// for every scheme (uniform / non-uniform / shared k=1 / shared k=2), both
// clean and fault-injected, seeded-random op sequences execute under the
// runtime invariant auditor with a golden-memory cross-check after every
// op; the same sequences also run differentially across all three schemes,
// and a bounded exhaustive enumeration sweeps every short op sequence.
// Exit status 0 means zero violations and zero divergences.
//
//   ./aeep_modelcheck [--ops=50000] [--seeds=4] [--exhaustive-len=4]
//   ./aeep_modelcheck --replay='w5.0:07,r13' --scheme=shared --entries=2
//   ./aeep_modelcheck --demo-broken          # seeded-bug fixtures must fail
//
// On any failure the sequence is shrunk to a minimal counterexample and a
// ready-to-run --replay command line is printed.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "verify/broken.hpp"
#include "verify/modelcheck.hpp"

using namespace aeep;
using verify::ModelCheckConfig;
using verify::Op;
using verify::RunReport;

namespace {

struct Campaign {
  u64 total_ops = 0;
  u64 total_faults = 0;
  unsigned configs_run = 0;
  unsigned failures = 0;
};

std::string replay_command(const ModelCheckConfig& cfg,
                           std::span<const Op> ops) {
  std::string cmd = "./aeep_modelcheck --replay='" +
                    verify::encode_ops(ops) + "'";
  switch (cfg.scheme) {
    case protect::SchemeKind::kUniformEcc: cmd += " --scheme=uniform"; break;
    case protect::SchemeKind::kNonUniform:
      cmd += " --scheme=nonuniform";
      break;
    case protect::SchemeKind::kSharedEccArray:
      cmd += " --scheme=shared --entries=" +
             std::to_string(cfg.entries_per_set);
      break;
  }
  if (cfg.inject_faults)
    cmd += " --faults=1 --seed=" + std::to_string(cfg.seed);
  if (cfg.cleaning_interval)
    cmd += " --cleaning=" + std::to_string(cfg.cleaning_interval);
  return cmd;
}

/// Shrink, then report a failing sequence with its replay command line.
void report_failure(const ModelCheckConfig& cfg, std::vector<Op> ops,
                    const RunReport& report) {
  std::printf("  FAIL [%s] after op %zu (%s):\n    %s\n",
              cfg.scheme_label().c_str(), report.failure->op_index,
              report.failure->kind.c_str(), report.failure->detail.c_str());
  const std::vector<Op> minimal = verify::shrink(cfg, std::move(ops));
  const RunReport mini = verify::run_sequence(cfg, minimal);
  std::printf("  minimized to %zu op(s): %s\n", minimal.size(),
              verify::encode_ops(minimal).c_str());
  if (mini.failure)
    std::printf("    -> %s: %s\n", mini.failure->kind.c_str(),
                mini.failure->detail.c_str());
  std::printf("  replay: %s\n", replay_command(cfg, minimal).c_str());
}

/// One campaign cell: `seeds` random sequences of `ops_per_seed` ops.
bool run_cell(Campaign& campaign, const ModelCheckConfig& cfg,
              unsigned seeds, std::size_t ops_per_seed) {
  ++campaign.configs_run;
  u64 cell_ops = 0, cell_faults = 0, cell_audits = 0;
  for (unsigned s = 0; s < seeds; ++s) {
    ModelCheckConfig run_cfg = cfg;
    run_cfg.seed = cfg.seed + s;
    std::vector<Op> ops =
        verify::random_ops(run_cfg, run_cfg.seed * 7919 + 1, ops_per_seed);
    const RunReport report = verify::run_sequence(run_cfg, ops);
    cell_ops += report.ops_run;
    cell_faults += report.faults_injected;
    cell_audits += report.audits;
    campaign.total_ops += report.ops_run;
    campaign.total_faults += report.faults_injected;
    if (!report.ok) {
      ++campaign.failures;
      report_failure(run_cfg, std::move(ops), report);
      return false;
    }
  }
  std::printf("  ok   [%-22s] %8llu ops, %6llu faults, %8llu audits\n",
              cfg.scheme_label().c_str(),
              static_cast<unsigned long long>(cell_ops),
              static_cast<unsigned long long>(cell_faults),
              static_cast<unsigned long long>(cell_audits));
  return true;
}

bool run_differential_suite(Campaign& campaign, unsigned seeds,
                            std::size_t ops_per_seed) {
  std::printf("differential (uniform vs non-uniform vs shared):\n");
  bool ok = true;
  for (unsigned s = 0; s < seeds; ++s) {
    ModelCheckConfig cfg;
    cfg.entries_per_set = 1 + s % 2;
    cfg.cleaning_interval = (s % 2) ? 0 : 400;
    cfg.seed = 1000 + s;
    const std::vector<Op> ops =
        verify::random_ops(cfg, cfg.seed * 104729 + 3, ops_per_seed);
    const verify::DiffReport diff = verify::run_differential(cfg, ops);
    for (const RunReport& r : diff.runs) campaign.total_ops += r.ops_run;
    if (!diff.ok) {
      ++campaign.failures;
      ok = false;
      std::printf("  FAIL seed=%llu: %s\n",
                  static_cast<unsigned long long>(cfg.seed),
                  diff.detail.c_str());
    }
  }
  if (ok)
    std::printf("  ok   %u seed(s) x %zu ops, k in {1,2}, all observables"
                " agree\n",
                seeds, ops_per_seed);
  return ok;
}

bool run_exhaustive(Campaign& campaign, unsigned lines, unsigned len) {
  std::printf("exhaustive (all %u-op sequences over %u lines):\n", len,
              lines);
  bool ok = true;
  for (const protect::SchemeKind kind :
       {protect::SchemeKind::kUniformEcc, protect::SchemeKind::kNonUniform,
        protect::SchemeKind::kSharedEccArray}) {
    ModelCheckConfig cfg;
    cfg.scheme = kind;
    const verify::ExhaustiveReport report =
        verify::exhaustive_check(cfg, lines, len);
    campaign.total_ops += report.ops;
    if (report.counterexample) {
      ++campaign.failures;
      ok = false;
      const RunReport rerun = verify::run_sequence(cfg, *report.counterexample);
      report_failure(cfg, *report.counterexample, rerun);
    } else {
      std::printf("  ok   [%-22s] %llu sequences, %llu ops\n",
                  cfg.scheme_label().c_str(),
                  static_cast<unsigned long long>(report.sequences),
                  static_cast<unsigned long long>(report.ops));
    }
  }
  return ok;
}

/// The seeded-bug fixtures MUST fail, and must shrink to a short replayable
/// counterexample — this exercises the whole detect/shrink/replay pipeline.
bool run_demo_broken() {
  std::printf("demo-broken (seeded bugs; every fixture must be caught):\n");
  bool all_caught = true;
  for (const verify::BrokenKind kind :
       {verify::BrokenKind::kOverCommit, verify::BrokenKind::kLeakEntry,
        verify::BrokenKind::kStaleParity}) {
    ModelCheckConfig cfg;
    cfg.scheme = protect::SchemeKind::kSharedEccArray;
    cfg.entries_per_set = 1;
    cfg.cleaning_interval = 400;
    cfg.scheme_factory = verify::broken_scheme_factory(kind, 1);
    cfg.label = std::string("broken-") + verify::to_string(kind);

    bool caught = false;
    for (u64 seed = 1; seed <= 8 && !caught; ++seed) {
      std::vector<Op> ops = verify::random_ops(cfg, seed * 31 + 7, 400);
      const RunReport report = verify::run_sequence(cfg, ops);
      if (report.ok) continue;
      caught = true;
      const std::vector<Op> minimal = verify::shrink(cfg, std::move(ops));
      const RunReport mini = verify::run_sequence(cfg, minimal);
      std::printf("  ok   [%-22s] caught as '%s', minimized %zu op(s): %s\n",
                  cfg.scheme_label().c_str(),
                  mini.failure ? mini.failure->kind.c_str() : "?",
                  minimal.size(), verify::encode_ops(minimal).c_str());
    }
    if (!caught) {
      all_caught = false;
      std::printf("  FAIL [%-22s] seeded bug escaped the checker\n",
                  cfg.scheme_label().c_str());
    }
  }
  return all_caught;
}

int run_replay(const CliArgs& args, const std::string& replay) {
  const auto ops = verify::decode_ops(replay);
  if (!ops) {
    std::printf("error: cannot parse --replay sequence '%s'\n",
                replay.c_str());
    return 2;
  }
  ModelCheckConfig cfg;
  cfg.scheme = get_choice<protect::SchemeKind>(
      args, "scheme", "shared",
      {{"uniform", protect::SchemeKind::kUniformEcc},
       {"nonuniform", protect::SchemeKind::kNonUniform},
       {"shared", protect::SchemeKind::kSharedEccArray}});
  cfg.entries_per_set = static_cast<unsigned>(args.get_u64("entries", 1));
  cfg.cleaning_interval = args.get_u64("cleaning", 0);
  cfg.inject_faults = args.get_bool("faults", false);
  cfg.seed = args.get_u64("seed", 1);
  const std::string broken = args.get("broken", "");
  if (broken == "overcommit")
    cfg.scheme_factory = verify::broken_scheme_factory(
        verify::BrokenKind::kOverCommit, cfg.entries_per_set);
  else if (broken == "leak")
    cfg.scheme_factory = verify::broken_scheme_factory(
        verify::BrokenKind::kLeakEntry, cfg.entries_per_set);
  else if (broken == "staleparity")
    cfg.scheme_factory = verify::broken_scheme_factory(
        verify::BrokenKind::kStaleParity, cfg.entries_per_set);

  const RunReport report = verify::run_sequence(cfg, *ops);
  std::printf("replayed %llu op(s) under %s: %s\n",
              static_cast<unsigned long long>(report.ops_run),
              cfg.scheme_label().c_str(), report.ok ? "clean" : "FAILED");
  if (!report.ok)
    std::printf("  op %zu (%s): %s\n", report.failure->op_index,
                report.failure->kind.c_str(), report.failure->detail.c_str());
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);

  const std::string replay = args.get("replay", "");
  if (!replay.empty()) return run_replay(args, replay);

  if (args.get_bool("demo-broken", false))
    return run_demo_broken() ? 0 : 1;

  const std::size_t ops_per_seed = args.get_u64("ops", 50'000);
  const unsigned seeds = static_cast<unsigned>(args.get_u64("seeds", 2));
  const unsigned exhaustive_len =
      static_cast<unsigned>(args.get_u64("exhaustive-len", 4));
  const unsigned exhaustive_lines =
      static_cast<unsigned>(args.get_u64("exhaustive-lines", 3));

  Campaign campaign;
  bool ok = true;

  std::printf("campaign (4 sets x 2 ways x 2-word lines, %u seed(s) x %zu"
              " ops per cell):\n",
              seeds, ops_per_seed);
  struct Cell {
    protect::SchemeKind scheme;
    unsigned entries;
    Cycle cleaning;
    bool faults;
  };
  const Cell cells[] = {
      {protect::SchemeKind::kUniformEcc, 1, 0, false},
      {protect::SchemeKind::kUniformEcc, 1, 400, true},
      {protect::SchemeKind::kNonUniform, 1, 400, false},
      {protect::SchemeKind::kNonUniform, 1, 0, true},
      {protect::SchemeKind::kSharedEccArray, 1, 0, false},
      {protect::SchemeKind::kSharedEccArray, 1, 400, true},
      {protect::SchemeKind::kSharedEccArray, 2, 400, false},
      {protect::SchemeKind::kSharedEccArray, 2, 0, true},
  };
  u64 seed_base = 1;
  for (const Cell& cell : cells) {
    ModelCheckConfig cfg;
    cfg.scheme = cell.scheme;
    cfg.entries_per_set = cell.entries;
    cfg.cleaning_interval = cell.cleaning;
    cfg.inject_faults = cell.faults;
    cfg.seed = seed_base;
    seed_base += seeds;
    ok = run_cell(campaign, cfg, seeds, ops_per_seed) && ok;
  }

  ok = run_differential_suite(campaign, 4, ops_per_seed / 10) && ok;
  if (exhaustive_len > 0)
    ok = run_exhaustive(campaign, exhaustive_lines, exhaustive_len) && ok;

  std::printf("\ntotal: %llu ops across %u configs, %llu faults injected,"
              " %u failure(s)\n",
              static_cast<unsigned long long>(campaign.total_ops),
              campaign.configs_run,
              static_cast<unsigned long long>(campaign.total_faults),
              campaign.failures);
  return ok ? 0 : 1;
}
