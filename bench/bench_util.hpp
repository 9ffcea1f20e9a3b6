// Shared helpers for the figure-regeneration benches: common CLI options,
// the sweep entry point, run headers and cleaning-interval labels.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::bench {

/// The flags of every bench that simulates: run length and seed, plus the
/// worker count of a bench that runs a sweep.
struct RunOptions {
  u64 instructions = 2'000'000;
  u64 warmup = 2'000'000;
  u64 seed = 42;
  unsigned jobs = 0;              ///< sweep workers; 0 = hardware concurrency
};

/// RunOptions plus the sweep flags of the grid benches.
struct CommonOptions : RunOptions {
  std::string suite = "all";      ///< all | fp | int | smoke
  std::string json_path;          ///< --json=<path>: machine-readable results
  std::string store_dir;          ///< --store=DIR: result-store cache
};

/// --instructions, `def` when absent. A run that commits nothing measures
/// nothing (every IPC and per-access rate divides by zero), so 0 exits 2;
/// --warmup=0 is a cold start and stays valid.
inline u64 parse_instructions(const CliArgs& args, u64 def) {
  const u64 n = args.get_u64("instructions", def);
  if (n == 0) {
    std::fprintf(stderr, "--instructions=0 measures nothing (at least 1)\n");
    std::exit(2);
  }
  return n;
}

/// --instructions, --warmup and --seed. A bench that runs no sweep reads
/// no --jobs, so the flag exits 2 there.
inline RunOptions parse_run(const CliArgs& args) {
  RunOptions o;
  o.instructions = parse_instructions(args, o.instructions);
  o.warmup = args.get_u64("warmup", o.warmup);
  o.seed = args.get_u64("seed", o.seed);
  return o;
}

inline CommonOptions parse_common(const CliArgs& args) {
  CommonOptions o;
  static_cast<RunOptions&>(o) = parse_run(args);
  o.jobs = static_cast<unsigned>(args.get_u64("jobs", o.jobs));
  o.suite = args.get("suite", o.suite);
  o.json_path = args.get("json", o.json_path);
  o.store_dir = args.get("store", o.store_dir);
  return o;
}

/// Worker count a bench should hand to SweepRunner: --jobs when given,
/// otherwise one per hardware thread.
inline unsigned resolve_jobs(const RunOptions& o) {
  return o.jobs == 0 ? sim::SweepRunner::default_jobs() : o.jobs;
}

/// The --store result cache, or nullptr when `dir` is empty. Exits 1 with
/// a message when the directory holds something that is not a store.
inline std::unique_ptr<store::SweepCache> open_store(const std::string& dir) {
  if (dir.empty()) return nullptr;
  try {
    return std::make_unique<store::SweepCache>(store::StoreConfig{dir, 4096});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open --store=%s: %s\n", dir.c_str(),
                 e.what());
    std::exit(1);
  }
}

/// The one sweep entry point the figure benches share: the grid through
/// store::run_grid_cached (the --store cache in front when one was asked
/// for), throwing on the first failed cell. Cached cells round-trip every
/// RunResult field, so a warm re-run's tables and --json cells are
/// byte-identical to the run that populated the store.
inline std::vector<sim::RunResult> run_sweep(
    const CommonOptions& o, const std::vector<sim::SweepJob>& grid,
    std::vector<double>* wall_seconds = nullptr) {
  const std::unique_ptr<store::SweepCache> cache = open_store(o.store_dir);
  std::vector<sim::SweepOutcome> outcomes =
      store::run_grid_cached(sim::SweepRunner(resolve_jobs(o)), grid,
                             cache.get(), sim::stderr_progress());
  if (cache) {
    const store::SweepCacheStats s = cache->stats();
    std::fprintf(stderr, "store: hits=%llu misses=%llu inserts=%llu (%s)\n",
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.inserts),
                 o.store_dir.c_str());
  }
  return sim::results_or_throw(grid, std::move(outcomes), wall_seconds);
}

inline std::vector<std::string> suite_benchmarks(const std::string& suite) {
  if (suite == "fp") return sim::fp_benchmarks();
  if (suite == "int") return sim::int_benchmarks();
  if (suite == "smoke") return sim::smoke_benchmarks();
  if (suite != "all") {
    std::fprintf(stderr, "unknown --suite=%s (all | fp | int | smoke)\n",
                 suite.c_str());
    std::exit(2);
  }
  return sim::all_benchmarks();
}

/// `sweep`: the bench runs its cells through a sweep, whose worker count
/// the header then reports.
inline void print_header(const char* experiment, const RunOptions& o,
                         bool sweep = true) {
  std::printf("=== %s ===\n", experiment);
  std::printf("machine: Table-1 four-issue OoO, 1MB 4-way 64B write-back L2\n");
  std::printf("run: %llu committed micro-ops after %llu warm-up, seed %llu\n",
              static_cast<unsigned long long>(o.instructions),
              static_cast<unsigned long long>(o.warmup),
              static_cast<unsigned long long>(o.seed));
  std::printf("frontend: exec\n");
  if (sweep) std::printf("sweep workers: %u\n", resolve_jobs(o));
  std::printf("\n");
}

/// Title of a further table a bench prints from the cells it already ran.
inline void print_section(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

inline std::string interval_label(u64 interval) {
  if (interval == 0) return "org";
  if (interval >= (u64{1} << 20) && interval % (u64{1} << 20) == 0)
    return std::to_string(interval >> 20) + "M";
  return std::to_string(interval >> 10) + "K";
}

}  // namespace aeep::bench
