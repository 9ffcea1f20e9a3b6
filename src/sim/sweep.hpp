// Running sweep cells: one cell through run_cell(), a whole
// (benchmark × sweep-point) grid through SweepRunner.
//
// Every figure/ablation bench drives dozens of fully independent, seeded
// `System` runs; SweepRunner's workers draw cell indices from one shared
// counter and run each through run_cell(), so a sweep finishes in grid/N
// wall-clock instead of grid wall-clock. aeep_served's workers run each job
// through the same run_cell().
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

/// Run one cell: the outcome holds its RunResult, or the exception it threw
/// as an error string, plus its own wall clock (also recorded in the
/// `sim.sweep.cell_us` histogram).
SweepOutcome run_cell(const SweepJob& job);

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
  /// 1..N; the worker that finished the cell makes the call.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& grid,
                                const ProgressFn& progress = nullptr) const;

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static unsigned default_jobs();

 private:
  unsigned jobs_;
};

/// The results of a finished grid (from SweepRunner::run or
/// store::run_grid_cached) in grid order, or a std::runtime_error naming the
/// first failed cell (grid-position order) — for callers that treat any
/// failed cell as fatal, like the benches. `wall_seconds` (optional)
/// receives each cell's own wall clock, indexed like the grid — the benches
/// feed it into the schema-v2 per-cell wall_clock_seconds field.
std::vector<RunResult> results_or_throw(const std::vector<SweepJob>& grid,
                                        std::vector<SweepOutcome> outcomes,
                                        std::vector<double>* wall_seconds =
                                            nullptr);

/// Progress callback rendering `[done/total] benchmark:tag` status lines to
/// stderr (stderr so `--json`/table output stays clean for pipes).
SweepRunner::ProgressFn stderr_progress();

}  // namespace aeep::sim
