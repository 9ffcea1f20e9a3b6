// Shared helpers for the figure-regeneration benches: common CLI options,
// the sweep entry point, run headers and cleaning-interval labels.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fabric/coordinator.hpp"
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
  /// --workers=HOST:PORT,...: the aeep_served fleet that computes the
  /// cells; empty = a local SweepRunner of --jobs threads.
  std::vector<fabric::WorkerEndpoint> workers;
  std::string token;              ///< --token: the fleet's shared secret
};

/// --instructions, --warmup and --seed. A bench that runs no sweep reads
/// no --jobs, so the flag exits 2 there.
inline RunOptions parse_run(const CliArgs& args) {
  RunOptions o;
  o.instructions = parse_instructions(args, o.instructions);
  o.warmup = args.get_u64("warmup", o.warmup);
  o.seed = args.get_u64("seed", o.seed);
  return o;
}

/// The grid benches' flags. A --workers entry that is not an endpoint, and
/// a --token with no fleet to send it to, exit 2.
inline CommonOptions parse_common(const CliArgs& args) {
  CommonOptions o;
  static_cast<RunOptions&>(o) = parse_run(args);
  o.jobs = static_cast<unsigned>(args.get_u64("jobs", o.jobs));
  o.suite = args.get("suite", o.suite);
  o.json_path = args.get("json", o.json_path);
  o.store_dir = args.get("store", o.store_dir);
  try {
    for (const std::string& w : args.get_list("workers", ""))
      o.workers.push_back(fabric::parse_endpoint(w));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --workers: %s\n", e.what());
    std::exit(2);
  }
  o.token = args.get("token", o.token);
  if (args.has("token") && o.workers.empty()) {
    std::fprintf(stderr, "--token authenticates --workers RPCs; no"
                         " --workers given\n");
    std::exit(2);
  }
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
    return std::make_unique<store::SweepCache>(store::StoreConfig{dir});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open --store=%s: %s\n", dir.c_str(),
                 e.what());
    std::exit(1);
  }
}

/// The one sweep entry point the grid benches share: the grid through
/// store::run_grid_cached (the --store cache in front when one was asked
/// for), computed on a local SweepRunner or, with --workers, on the fleet
/// through a fabric::Coordinator; throws on the first failed cell. Cached
/// and fleet cells round-trip every RunResult field, so their tables and
/// --json cells are byte-identical to a local run's. `store_stats`
/// (optional) receives the cache's hit and miss counts.
inline std::vector<sim::RunResult> run_sweep(
    const CommonOptions& o, const std::vector<sim::SweepJob>& grid,
    std::vector<double>* wall_seconds = nullptr,
    store::SweepCacheStats* store_stats = nullptr) {
  const std::unique_ptr<store::SweepCache> cache = open_store(o.store_dir);
  std::optional<fabric::Coordinator> fleet;
  if (!o.workers.empty()) {
    fabric::FabricConfig cfg;
    cfg.workers = o.workers;
    cfg.token = o.token;
    cfg.seed = o.seed;
    cfg.local_jobs = o.jobs;
    fleet.emplace(std::move(cfg));
  }
  const sim::SweepRunner local(resolve_jobs(o));
  std::vector<sim::SweepOutcome> outcomes = store::run_grid_cached(
      [&](const std::vector<sim::SweepJob>& cells,
          const sim::SweepRunner::ProgressFn& progress) {
        return fleet ? fleet->run(cells, progress) : local.run(cells, progress);
      },
      grid, cache.get(), sim::stderr_progress());
  if (fleet) {
    const fabric::FabricStats s = fleet->stats();
    std::fprintf(stderr,
                 "fleet: remote=%llu local=%llu retries=%llu "
                 "worker_failures=%llu busy_backoffs=%llu\n",
                 static_cast<unsigned long long>(s.jobs_remote),
                 static_cast<unsigned long long>(s.jobs_local),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.worker_failures),
                 static_cast<unsigned long long>(s.busy_backoffs));
    for (const fabric::DroppedWorker& d : fleet->dropped())
      std::fprintf(stderr, "fleet: dropped worker %s: %s\n",
                   d.worker.c_str(), d.reason.c_str());
  }
  if (cache) {
    const store::SweepCacheStats s = cache->stats();
    std::fprintf(stderr, "store: hits=%llu misses=%llu inserts=%llu (%s)\n",
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.inserts),
                 o.store_dir.c_str());
    if (store_stats) *store_stats = s;
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

/// `sweep_workers`: the worker count of the bench's sweep, which the
/// header then reports; 0 for a bench that runs none.
inline void print_header(const char* experiment, const RunOptions& o,
                         unsigned sweep_workers = 0) {
  std::printf("=== %s ===\n", experiment);
  std::printf("machine: Table-1 four-issue OoO, 1MB 4-way 64B write-back L2\n");
  std::printf("run: %llu committed micro-ops after %llu warm-up, seed %llu\n",
              static_cast<unsigned long long>(o.instructions),
              static_cast<unsigned long long>(o.warmup),
              static_cast<unsigned long long>(o.seed));
  std::printf("frontend: exec\n");
  if (sweep_workers) std::printf("sweep workers: %u\n", sweep_workers);
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
