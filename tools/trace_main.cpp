// aeep_trace — capture, replay, cross-validate and inspect L2 access traces.
//
//   aeep_trace capture  --benchmark=gzip --out=gzip.aeept [run/scheme opts]
//   aeep_trace replay   --trace=gzip.aeept [--benchmark=gzip] [scheme opts]
//   aeep_trace validate --benchmarks=gzip,mcf --trace-dir=DIR [run/scheme opts]
//   aeep_trace info     --trace=gzip.aeept
//
// `validate` is the cross-validation gate CI runs: each benchmark is run
// execution-driven (capturing), replayed trace-driven under the same
// configuration, and the dirty-ratio / WB / Clean-WB / ECC-WB metrics must
// be equal. Exit code is non-zero when any metric differs. `replay` says
// whether it drove the L2 alone from the trace's L2-side stream or the
// whole hierarchy from its L1-level events; `info` counts both. Run/scheme
// options shared by the subcommands: --instructions, --warmup, --seed,
// --scheme=uniform|nonuniform|shared, --interval (cleaning interval,
// cycles), --entries (shared-ECC entries per set). A flag a subcommand
// does not read exits 2.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "sim/experiment.hpp"
#include "trace/io.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/validate.hpp"
#include "workload/profile.hpp"

using namespace aeep;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: aeep_trace <capture|replay|validate|info> [--flags]\n"
               "  capture  --benchmark=NAME --out=FILE [run/scheme opts]\n"
               "  replay   --trace=FILE [--benchmark=NAME] [run/scheme opts]\n"
               "  validate --benchmarks=A,B,... --trace-dir=DIR "
               "[run/scheme opts]\n"
               "  info     --trace=FILE\n");
  return 2;
}

sim::ExperimentOptions parse_experiment(const CliArgs& args) {
  sim::ExperimentOptions eo;
  eo.instructions = parse_instructions(args, 200'000);
  eo.warmup_instructions = args.get_u64("warmup", 20'000);
  eo.seed = args.get_u64("seed", 42);
  eo.cleaning_interval = args.get_u64("interval", 256 * 1024);
  eo.ecc_entries_per_set =
      static_cast<unsigned>(args.get_u64("entries", 1));
  eo.scheme = get_choice<protect::SchemeKind>(
      args, "scheme", "shared",
      {{"uniform", protect::SchemeKind::kUniformEcc},
       {"nonuniform", protect::SchemeKind::kNonUniform},
       {"shared", protect::SchemeKind::kSharedEccArray}});
  return eo;
}

void print_run(const sim::RunResult& r) {
  std::printf("  avg_dirty_fraction  %.6f\n", r.avg_dirty_fraction);
  std::printf("  wb_replacement      %llu\n",
              static_cast<unsigned long long>(r.wb_replacement));
  std::printf("  wb_cleaning         %llu\n",
              static_cast<unsigned long long>(r.wb_cleaning));
  std::printf("  wb_ecc              %llu\n",
              static_cast<unsigned long long>(r.wb_ecc));
  std::printf("  l2 accesses/misses  %llu / %llu\n",
              static_cast<unsigned long long>(r.l2.accesses()),
              static_cast<unsigned long long>(r.l2.misses()));
  std::printf("  committed/cycles    %llu / %llu (ipc %.3f)\n",
              static_cast<unsigned long long>(r.core.committed),
              static_cast<unsigned long long>(r.core.cycles), r.ipc());
}

int cmd_capture(const CliArgs& args) {
  const std::string benchmark = args.get("benchmark", "");
  const std::string out = args.get("out", "");
  if (benchmark.empty() || out.empty()) return usage();
  sim::ExperimentOptions eo = parse_experiment(args);
  reject_unknown_flags(args);
  eo.capture_path = out;
  const sim::RunResult r = sim::run_benchmark(benchmark, eo);
  std::printf("captured %s -> %s\n", benchmark.c_str(), out.c_str());
  print_run(r);
  return 0;
}

int cmd_replay(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty()) return usage();
  const std::string benchmark = args.get("benchmark", "");
  sim::ExperimentOptions eo = parse_experiment(args);
  reject_unknown_flags(args);
  if (!benchmark.empty()) (void)workload::profile_by_name(benchmark);
  // The hierarchy does not depend on the benchmark, so an externally
  // ingested stream (no --benchmark) replays under the same config.
  trace::ReplayConfig rc;
  rc.hierarchy = sim::make_system_config("gzip", eo).hierarchy;
  rc.trace_path = path;
  trace::ReplayDriver driver(std::move(rc));
  const sim::RunResult r = driver.run();
  std::printf("replayed %s from its %s\n", path.c_str(),
              driver.drove_l2_stream() ? "L2-side stream (L2 only)"
                                       : "L1-level events (whole hierarchy)");
  print_run(r);
  return 0;
}

int cmd_validate(const CliArgs& args) {
  const std::string dir = args.get("trace-dir", ".");
  const std::vector<std::string> benchmarks =
      args.get_list("benchmarks", "gzip,mcf");
  const sim::ExperimentOptions eo = parse_experiment(args);
  reject_unknown_flags(args);
  bool all_pass = true;
  double exec_total = 0.0, replay_total = 0.0;
  for (const auto& b : benchmarks) {
    const sim::SystemConfig cfg = sim::make_system_config(b, eo);
    const trace::ValidationReport rep =
        trace::cross_validate(cfg, dir + "/" + b + ".aeept");
    std::printf("%s", rep.to_text().c_str());
    all_pass = all_pass && rep.pass;
    exec_total += rep.exec_seconds;
    replay_total += rep.replay_seconds;
  }
  if (replay_total > 0.0)
    std::printf("overall: exec %.2fs, replay %.2fs, per-cell speedup %.1fx\n",
                exec_total, replay_total, exec_total / replay_total);
  std::printf("cross-validation %s\n", all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}

int cmd_info(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty()) return usage();
  reject_unknown_flags(args);
  trace::TraceReader reader(path);
  trace::TraceEvent e;
  u64 counts[4] = {0, 0, 0, 0};
  Cycle first_tick = 0, last_tick = 0;
  bool any = false;
  while (reader.next(e)) {
    ++counts[static_cast<unsigned>(e.kind)];
    if (!any) first_tick = e.tick;
    last_tick = e.tick;
    any = true;
  }
  const trace::TraceSummary& s = reader.summary();
  std::printf("%s: format v%u, line_bytes %u\n", path.c_str(),
              reader.version(), reader.line_bytes());
  std::printf("  events   %llu in %llu chunks (fetch %llu, load %llu, "
              "store %llu, reset %llu)\n",
              static_cast<unsigned long long>(reader.events_read()),
              static_cast<unsigned long long>(reader.chunks_read()),
              static_cast<unsigned long long>(counts[0]),
              static_cast<unsigned long long>(counts[1]),
              static_cast<unsigned long long>(counts[2]),
              static_cast<unsigned long long>(counts[3]));
  std::printf("  ticks    %llu .. %llu, end %llu\n",
              static_cast<unsigned long long>(first_tick),
              static_cast<unsigned long long>(last_tick),
              static_cast<unsigned long long>(s.end_tick));
  std::printf("  summary  committed %llu, loads %llu, stores %llu\n",
              static_cast<unsigned long long>(s.committed),
              static_cast<unsigned long long>(s.loads),
              static_cast<unsigned long long>(s.stores));
  if (reader.has_l2_stream()) {
    trace::TraceReader l2_reader(path);
    trace::L2Chunk chunk;
    u64 l2_counts[3] = {0, 0, 0};
    while (l2_reader.next_l2_chunk(chunk))
      for (const trace::L2Op& op : chunk.ops)
        ++l2_counts[static_cast<unsigned>(op.kind)];
    std::printf("  l2 ops   %llu in %llu chunks (fill %llu, drain %llu, "
                "reset %llu), L1 side %016llx\n",
                static_cast<unsigned long long>(l2_reader.l2_ops_read()),
                static_cast<unsigned long long>(l2_reader.l2_chunks_read()),
                static_cast<unsigned long long>(l2_counts[0]),
                static_cast<unsigned long long>(l2_counts[1]),
                static_cast<unsigned long long>(l2_counts[2]),
                static_cast<unsigned long long>(reader.l1_side_digest()));
  } else {
    std::printf("  l2 ops   none (no L2-side stream)\n");
  }
  // The same whole-file CRC64 the result store folds into job digests, so
  // "which trace produced this cache entry" is answerable from here.
  std::printf("  digest   %016llx\n",
              static_cast<unsigned long long>(trace::file_digest(path)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const CliArgs args = parse_cli_or_exit(argc - 1, argv + 1);
  try {
    if (cmd == "capture") return cmd_capture(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "info") return cmd_info(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeep_trace %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
