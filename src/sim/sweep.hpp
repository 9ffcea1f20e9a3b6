// Parallel sweep engine for (benchmark × sweep-point) experiment grids.
//
// Every figure/ablation bench drives dozens of fully independent, seeded
// `System` runs; SweepRunner fans them out across a thread pool draining a
// shared lock-free MPMC ring (common/mpmc_queue.hpp) so a sweep finishes in
// grid/N wall-clock instead of grid wall-clock.
// Guarantees:
//  - deterministic results: outcomes come back indexed exactly like the
//    submitted jobs, and each run is seeded entirely by its SystemConfig,
//    so `--jobs=1` and `--jobs=N` produce byte-identical result vectors;
//  - failure isolation: an exception inside one job is captured into that
//    job's outcome as a structured error instead of aborting the process;
//  - live progress: an optional callback fires (serialised) after every
//    completed job, for status lines.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace aeep::sim {

/// One cell of a sweep grid: a benchmark plus the options to run it under.
/// `tag` travels through untouched; benches use it to map outcomes back to
/// their table cells (e.g. the interval label "64K" or "org").
struct SweepJob {
  std::string benchmark;
  ExperimentOptions options{};
  std::string tag{};
};

/// Result slot for one job: a RunResult, or the error that replaced it.
struct SweepOutcome {
  RunResult result{};
  std::string error{};  ///< non-empty: the job threw; result is meaningless
  double wall_seconds = 0.0;  ///< this job's own wall clock (schema v2 cells)
  bool ok() const { return error.empty(); }
};

/// Snapshot handed to the progress callback after each completed job.
struct SweepProgress {
  std::size_t completed = 0;  ///< jobs finished so far (including this one)
  std::size_t total = 0;
  std::size_t job_index = 0;  ///< index of the job that just finished
  const SweepJob* job = nullptr;
  const SweepOutcome* outcome = nullptr;
};

class SweepRunner {
 public:
  using ProgressFn = std::function<void(const SweepProgress&)>;

  /// `jobs` worker threads; 0 picks one per hardware thread. With one
  /// worker the grid runs inline on the calling thread (no pool), which is
  /// what the determinism test compares parallel runs against.
  explicit SweepRunner(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Run the whole grid. Outcomes are indexed exactly like `grid`
  /// regardless of which worker ran what. `progress` (optional) is invoked
  /// serialised, in completion order, with `completed` strictly increasing
  /// 1..N — but off the workers' critical path: a slow callback delays at
  /// most the one worker currently elected to deliver events, never the
  /// whole pool.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& grid,
                                const ProgressFn& progress = nullptr) const;

  /// Like run(), but rethrows the first job error (grid-position order) —
  /// for callers that treat any failed cell as fatal, like the benches.
  /// `wall_seconds` (optional) receives each job's own wall clock, indexed
  /// like the grid — the benches feed it into the schema-v2 per-cell
  /// wall_clock_seconds field.
  std::vector<RunResult> run_or_throw(
      const std::vector<SweepJob>& grid, const ProgressFn& progress = nullptr,
      std::vector<double>* wall_seconds = nullptr) const;

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static unsigned default_jobs();

 private:
  unsigned jobs_;
};

/// run_or_throw's outcome-to-result step, for grids run some other way
/// (store::run_grid_cached): the results in grid order, or a
/// std::runtime_error naming the first failed cell (grid-position order).
/// `wall_seconds` (optional) receives each cell's own wall clock.
std::vector<RunResult> results_or_throw(const std::vector<SweepJob>& grid,
                                        std::vector<SweepOutcome> outcomes,
                                        std::vector<double>* wall_seconds =
                                            nullptr);

/// Progress callback rendering `[done/total] benchmark:tag` status lines to
/// stderr (stderr so `--json`/table output stays clean for pipes).
SweepRunner::ProgressFn stderr_progress();

}  // namespace aeep::sim
