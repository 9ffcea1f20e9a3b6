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
// done. Like SweepRunner, outcomes come back indexed exactly like the
// submitted grid, and every cell is seeded by its options — so a fabric
// run, however chaotic the path, is bit-exact against a single-node run of
// the same grid. That equivalence is the CI chaos gate.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "fabric/backoff.hpp"
#include "fabric/endpoint.hpp"
#include "metrics/clock.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

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
  /// Result-store directory (store::SweepCache). Empty = no cache. Cells
  /// whose digest hits the store are delivered (worker = "cache") before
  /// anything is sharded to the fleet; completed cells are inserted after
  /// the run, full RunResults, so the next identical sweep — fabric or
  /// store::run_grid_cached in the same binary — runs nothing.
  std::string store_dir;
  /// Shared secret attached to every worker RPC. Must match the workers'
  /// --token or dispatches bounce as kUnauthorized.
  std::string token;
};

/// One grid cell's outcome. `result` is the full RunResult whether the
/// cell ran remotely (decoded from the worker's codec document), locally,
/// or came from the store — callers render it like any single-node result,
/// which is what makes fabric output byte-comparable with local output.
struct FabricOutcome {
  sim::RunResult result{};
  std::string error;       ///< non-empty: the cell failed everywhere
  std::string worker;      ///< endpoint name, "local" or "cache"
  unsigned attempts = 0;   ///< dispatches this cell consumed
  bool ok() const { return error.empty(); }
};

struct FabricStats {
  u64 dispatches = 0;       ///< batches sent to workers
  u64 jobs_remote = 0;      ///< cells computed by the fleet
  u64 jobs_local = 0;       ///< cells computed by the local fallback
  u64 jobs_cached = 0;      ///< cells served from the result store
  u64 store_inserts = 0;    ///< completed cells written to the store
  u64 retries = 0;          ///< cell re-queues after a failure or bounce
  u64 worker_failures = 0;  ///< failed round trips (all kinds)
  u64 busy_backoffs = 0;    ///< kBusy bounces absorbed with backoff
};

/// A worker that left a run after kDropAfter failed round trips in a row.
struct DroppedWorker {
  std::string worker;  ///< endpoint display name
  std::string reason;  ///< its last failure
};

/// Progress snapshot, fired (serialised) after every completed cell.
struct FabricProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
  std::size_t job_index = 0;
  const sim::SweepJob* job = nullptr;
  const FabricOutcome* outcome = nullptr;
};

class Coordinator {
 public:
  using ProgressFn = std::function<void(const FabricProgress&)>;

  /// Consecutive failed round trips after which a worker leaves the run.
  static constexpr unsigned kDropAfter = 3;

  explicit Coordinator(FabricConfig config);

  /// Run the whole grid to completion. Outcomes are indexed exactly like
  /// `grid`. Never throws for per-cell or per-worker trouble — a cell that
  /// cannot be computed anywhere comes back with `error` set.
  std::vector<FabricOutcome> run(const std::vector<sim::SweepJob>& grid,
                                 const ProgressFn& progress = nullptr);

  /// The workers that left the last run(), in the order they left.
  std::vector<DroppedWorker> dropped() const;
  FabricStats stats() const;
  void reset_stats();

 private:
  struct Cell {
    unsigned attempts = 0;
    metrics::TimePoint dispatched_at{};
  };

  struct RunState {
    const std::vector<sim::SweepJob>* grid = nullptr;
    std::vector<FabricOutcome>* out = nullptr;
    std::vector<Cell> cells;
    std::deque<std::size_t> pending;
    std::size_t completed = 0;
    ProgressFn progress;
  };

  void worker_loop(std::size_t worker_idx, RunState& rs);
  /// Wait for pending cells and claim up to batch_size of them. Empty once
  /// every cell is done. Caller holds no lock.
  std::vector<std::size_t> claim_batch(RunState& rs);
  /// Terminal delivery. Caller holds no lock.
  void deliver(RunState& rs, std::size_t index, FabricOutcome outcome);
  /// A dispatch that did not finish: back onto the queue, or fail the cell
  /// when its attempt budget is spent. `charge_attempt` is false for cells
  /// that never reached the worker (a busy bounce, a failed connect).
  /// Caller holds no lock.
  void requeue(RunState& rs, std::size_t index, const std::string& error,
               bool charge_attempt);
  void run_locally(RunState& rs);

  FabricConfig config_;
  /// Present when config.store_dir is set. Internally locked; consulted
  /// before and after a run, never while holding mutex_.
  std::unique_ptr<store::SweepCache> cache_;

  /// Guards stats_, dropped_ and the per-run RunState (cells/pending/
  /// completed) threaded through the private helpers — RunState is a local
  /// in run(), so its members cannot carry AEEP_GUARDED_BY themselves.
  mutable aeep::Mutex mutex_;
  aeep::CondVar cv_work_;  ///< pending gained work, or every cell is done
  FabricStats stats_ AEEP_GUARDED_BY(mutex_){};
  std::vector<DroppedWorker> dropped_ AEEP_GUARDED_BY(mutex_);
};

}  // namespace aeep::fabric
