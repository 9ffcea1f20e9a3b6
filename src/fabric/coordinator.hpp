// The coordinator side of the sweep fabric: shards a (benchmark × options)
// sweep grid into job batches and fans them over the aeep_served wire
// protocol to a fleet of workers, one thread per worker. It does three
// things:
//
//  - dispatch: a worker thread claims up to batch_size pending cells,
//    submits them and collects their results. There is no separate health
//    probe; the first dispatch is the probe;
//  - backoff retry: a failed or bounced batch goes back on the queue and
//    the thread cools off on a jittered exponential Backoff. A kBusy
//    bounce costs its cells no attempt; a cell that has spent max_attempts
//    dispatches fails. A worker whose round trips fail kDropAfter times in
//    a row leaves the run (HARP's rule: stop retrying a component that has
//    proven itself bad) and is listed in dropped();
//  - local fallback: once no worker is left, or there never was one, the
//    cells still pending run on a local sim::SweepRunner, so a dead fleet
//    degrades to "slow", never "wrong".
//
// A cell is in exactly one place: pending, held by one worker thread, or
// done. run() has SweepRunner::run's shape and contract — outcomes indexed
// exactly like the submitted grid, progress serialised in completion order
// — so store::run_grid_cached fronts either one, and a bench sweep picks
// the fleet with --workers. Every cell is seeded by its options, so a
// fabric run, however chaotic the path, is bit-exact against a single-node
// run of the same grid. That equivalence is the CI chaos gate.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "fabric/backoff.hpp"
#include "fabric/endpoint.hpp"
#include "metrics/clock.hpp"
#include "sim/sweep.hpp"

namespace aeep::fabric {

struct FabricConfig {
  std::vector<WorkerEndpoint> workers;  ///< empty = run everything locally
  BackoffPolicy backoff{};
  u64 seed = 1;                   ///< jitter streams derive from this
  unsigned max_attempts = 6;      ///< dispatches per cell before it fails
  std::size_t batch_size = 4;     ///< cells submitted per worker dispatch
  u64 call_timeout_ms = 10'000;   ///< per wire round trip
  u64 job_wait_ms = 300'000;      ///< result-wait budget per cell
  unsigned local_jobs = 0;        ///< SweepRunner threads for the fallback
  /// Shared secret attached to every worker RPC. Must match the workers'
  /// --token or dispatches bounce as kUnauthorized.
  std::string token;
};

struct FabricStats {
  u64 dispatches = 0;       ///< batches sent to workers
  u64 jobs_remote = 0;      ///< cells computed by the fleet
  u64 jobs_local = 0;       ///< cells computed by the local fallback
  u64 retries = 0;          ///< cell re-queues after a failure or bounce
  u64 worker_failures = 0;  ///< failed round trips (all kinds)
  u64 busy_backoffs = 0;    ///< kBusy bounces absorbed with backoff
};

/// A worker that left a run after kDropAfter failed round trips in a row.
struct DroppedWorker {
  std::string worker;  ///< endpoint display name
  std::string reason;  ///< its last failure
};

/// Where one cell of the last run() was computed.
struct CellPlacement {
  std::string worker;     ///< endpoint name, or "local"
  unsigned attempts = 0;  ///< dispatches this cell consumed
};

class Coordinator {
 public:
  /// Consecutive failed round trips after which a worker leaves the run.
  static constexpr unsigned kDropAfter = 3;

  explicit Coordinator(FabricConfig config);

  /// Run the whole grid to completion. Outcomes are indexed exactly like
  /// `grid`. Never throws for per-cell or per-worker trouble — a cell that
  /// cannot be computed anywhere comes back with `error` set. A fleet
  /// cell's wall_seconds is its dispatch-to-delivery time; a fallback
  /// cell's is its local compute time.
  std::vector<sim::SweepOutcome> run(
      const std::vector<sim::SweepJob>& grid,
      const sim::SweepRunner::ProgressFn& progress = nullptr);

  /// The workers that left the last run(), in the order they left.
  std::vector<DroppedWorker> dropped() const;
  /// Where each cell of the last run() was computed, indexed like its grid.
  std::vector<CellPlacement> placements() const;
  FabricStats stats() const;
  void reset_stats();

 private:
  struct Cell {
    unsigned attempts = 0;
    metrics::TimePoint dispatched_at{};
  };

  struct RunState {
    const std::vector<sim::SweepJob>* grid = nullptr;
    std::vector<sim::SweepOutcome>* out = nullptr;
    std::vector<Cell> cells;
    std::deque<std::size_t> pending;
    std::size_t completed = 0;
    sim::SweepRunner::ProgressFn progress;
  };

  void worker_loop(std::size_t worker_idx, RunState& rs);
  /// Wait for pending cells and claim up to batch_size of them. Empty once
  /// every cell is done. Caller holds no lock.
  std::vector<std::size_t> claim_batch(RunState& rs);
  /// Terminal delivery of a cell computed by `worker` ("local" for the
  /// fallback). Caller holds no lock.
  void deliver(RunState& rs, std::size_t index, sim::SweepOutcome outcome,
               const std::string& worker);
  /// A dispatch that did not finish: back onto the queue, or fail the cell
  /// when its attempt budget is spent. `charge_attempt` is false for cells
  /// that never reached the worker (a busy bounce, a failed connect).
  /// Caller holds no lock.
  void requeue(RunState& rs, std::size_t index, const std::string& error,
               bool charge_attempt);
  void run_locally(RunState& rs);

  FabricConfig config_;

  /// Guards stats_, dropped_, placements_ and the per-run RunState
  /// (cells/pending/completed) threaded through the private helpers —
  /// RunState is a local in run(), so its members cannot carry
  /// AEEP_GUARDED_BY themselves.
  mutable aeep::Mutex mutex_;
  aeep::CondVar cv_work_;  ///< pending gained work, or every cell is done
  FabricStats stats_ AEEP_GUARDED_BY(mutex_){};
  std::vector<DroppedWorker> dropped_ AEEP_GUARDED_BY(mutex_);
  std::vector<CellPlacement> placements_ AEEP_GUARDED_BY(mutex_);
};

}  // namespace aeep::fabric
