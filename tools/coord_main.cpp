// aeep_coord — fan a sweep grid over a fleet of aeep_served workers.
//
//   aeep_coord --workers=127.0.0.1:7501,127.0.0.1:7502,7503 [grid flags]
//   aeep_coord --local                 — same grid on a local SweepRunner
//
// The grid is suite benchmarks × the three protection schemes, identical
// to what the figure benches sweep. Cells are dispatched in batches with
// jittered-backoff retries; a worker that fails three round trips in a row
// is dropped (one "dropped worker NAME: reason" line on stderr), and the
// cells left when no worker remains run locally — see
// src/fabric/coordinator.hpp. Every mode ends in one full sim::RunResult
// per cell (workers send the lossless codec document, the store holds it)
// and renders it through one path, sim::run_result_json. Because every
// cell is seeded, `--json` output from a chaotic fleet run, from `--local`
// and from the store must have byte-identical cells — that equivalence is
// the CI chaos gate.
//
// Grid flags: --suite=all|fp|int|smoke --instructions --warmup --seed
//             --frontend=exec|trace --trace-dir (local fallback only)
// Fleet flags: --workers=HOST:PORT[,...] --max-attempts --batch-size
//   --call-timeout-ms --job-wait-ms --backoff-base-ms --local-jobs --token
// Store: --store=DIR consults the content-addressed result store before
//   running (both modes); a cell whose digest hits is served from cache
//   with zero simulation work, and computed cells are inserted for the
//   next run. Fabric and --local runs of this binary share records: a
//   fleet sweep's store answers the same grid run --local. The reporter
//   config records store_hits/store_misses — the CI store-smoke and
//   fabric-chaos-smoke gates assert a repeated sweep is 100% hits.
// Output: --json=FILE (bench schema v2, cells in grid order, per-cell
//   wall_clock_seconds 0.0 in every mode).
// Exit codes: 0 every cell computed, 2 usage, 1 any cell failed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "fabric/coordinator.hpp"
#include "json_reporter.hpp"
#include "sim/result_json.hpp"
#include "store/sweep_cache.hpp"

using namespace aeep;

namespace {

/// The sweep every aeep_coord invocation runs: suite benchmarks × the three
/// protection schemes, tagged by scheme label.
std::vector<sim::SweepJob> build_grid(const bench::CommonOptions& o) {
  const protect::SchemeKind schemes[] = {
      protect::SchemeKind::kUniformEcc,
      protect::SchemeKind::kNonUniform,
      protect::SchemeKind::kSharedEccArray,
  };
  std::vector<sim::SweepJob> grid;
  for (const auto& benchmark : bench::suite_benchmarks(o.suite)) {
    for (const auto scheme : schemes) {
      sim::SweepJob job;
      job.benchmark = benchmark;
      job.tag = protect::to_string(scheme);
      job.options.scheme = scheme;
      job.options.instructions = o.instructions;
      job.options.warmup_instructions = o.warmup;
      job.options.seed = o.seed;
      bench::apply_frontend(job.options, o);
      grid.push_back(std::move(job));
    }
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions o = bench::parse_common(args);
  const bool local_only = args.get_bool("local", false);
  const std::vector<std::string> workers = args.get_list("workers", "");

  fabric::FabricConfig cfg;
  cfg.seed = o.seed;
  cfg.backoff.base_ms = args.get_u64("backoff-base-ms", cfg.backoff.base_ms);
  cfg.max_attempts = static_cast<unsigned>(
      args.get_u64("max-attempts", cfg.max_attempts));
  cfg.batch_size = static_cast<std::size_t>(
      args.get_u64("batch-size", cfg.batch_size));
  cfg.call_timeout_ms = args.get_u64("call-timeout-ms", cfg.call_timeout_ms);
  cfg.job_wait_ms = args.get_u64("job-wait-ms", cfg.job_wait_ms);
  cfg.local_jobs = static_cast<unsigned>(args.get_u64("local-jobs", o.jobs));
  const std::string store_dir = args.get("store", "");
  cfg.token = args.get("token", "");
  cfg.store_dir = store_dir;
  reject_unknown_flags(args);

  if (!local_only && workers.empty()) {
    std::fprintf(stderr,
                 "aeep_coord: need --workers=HOST:PORT[,...] or --local\n");
    return 2;
  }

  try {
    if (!local_only)
      for (const std::string& w : workers)
        cfg.workers.push_back(fabric::parse_endpoint(w));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeep_coord: %s\n", e.what());
    return 2;
  }

  const std::vector<sim::SweepJob> grid = build_grid(o);
  std::fprintf(stderr, "aeep_coord: %zu cells, %zu worker(s)%s\n",
               grid.size(), cfg.workers.size(),
               local_only ? " (local baseline)" : "");

  // "jobs" is the worker count the sweep used: the fleet, or the local
  // SweepRunner's threads.
  bench::JsonReporter reporter(
      "coord_sweep", o,
      local_only ? bench::resolve_jobs(o)
                 : static_cast<unsigned>(cfg.workers.size()));
  reporter.set_config("mode",
                      JsonValue::string(local_only ? "local" : "fabric"));

  // One render path for every mode: a cell's full RunResult, whether it
  // was simulated here, on a worker, or read from the store, becomes its
  // --json metrics through sim::run_result_json.
  bool any_failed = false;
  const auto report = [&](const auto& outcomes) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!outcomes[i].ok()) {
        any_failed = true;
        std::fprintf(stderr, "aeep_coord: cell %s:%s failed: %s\n",
                     grid[i].benchmark.c_str(), grid[i].tag.c_str(),
                     outcomes[i].error.c_str());
        continue;
      }
      reporter.add_cell(grid[i].benchmark, grid[i].tag,
                        sim::run_result_json(outcomes[i].result));
    }
  };
  const auto report_store = [&](u64 hits) {
    if (store_dir.empty()) return;
    const u64 misses = u64{grid.size()} - hits;
    reporter.set_config("store_hits", JsonValue::number(hits));
    reporter.set_config("store_misses", JsonValue::number(misses));
    std::fprintf(stderr, "aeep_coord: store hits=%llu misses=%llu (%s)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses), store_dir.c_str());
  };

  if (local_only) {
    const std::unique_ptr<store::SweepCache> cache =
        bench::open_store(store_dir);
    report(store::run_grid_cached(sim::SweepRunner(o.jobs), grid,
                                  cache.get(), sim::stderr_progress()));
    report_store(cache ? cache->stats().hits : 0);
  } else {
    std::unique_ptr<fabric::Coordinator> coord;
    try {
      coord = std::make_unique<fabric::Coordinator>(std::move(cfg));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aeep_coord: cannot open store: %s\n", e.what());
      return 1;
    }
    report(coord->run(grid, [](const fabric::FabricProgress& p) {
      std::fprintf(stderr, "[%zu/%zu] %s:%s <- %s\n", p.completed, p.total,
                   p.job->benchmark.c_str(), p.job->tag.c_str(),
                   p.outcome->ok() ? p.outcome->worker.c_str() : "FAILED");
    }));

    const fabric::FabricStats s = coord->stats();
    std::fprintf(stderr,
                 "aeep_coord: remote=%llu local=%llu cached=%llu "
                 "retries=%llu worker_failures=%llu busy_backoffs=%llu\n",
                 static_cast<unsigned long long>(s.jobs_remote),
                 static_cast<unsigned long long>(s.jobs_local),
                 static_cast<unsigned long long>(s.jobs_cached),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.worker_failures),
                 static_cast<unsigned long long>(s.busy_backoffs));
    report_store(s.jobs_cached);
    for (const fabric::DroppedWorker& d : coord->dropped())
      std::fprintf(stderr, "aeep_coord: dropped worker %s: %s\n",
                   d.worker.c_str(), d.reason.c_str());
  }

  if (!reporter.write(o.json_path)) return 1;
  if (any_failed) {
    std::fprintf(stderr, "aeep_coord: some cells failed\n");
    return 1;
  }
  std::fprintf(stderr, "aeep_coord: all %zu cells computed\n", grid.size());
  return 0;
}
