// The coordinator side of the sweep fabric: shards a (benchmark × options)
// sweep grid into job batches and fans them over the aeep_served wire
// protocol to a registry of workers, surviving the failures ChaosProxy
// injects and real fleets suffer:
//
//  - per-worker health probes before dispatch, and consecutive-failure
//    scoring on every round trip (WorkerRegistry);
//  - jittered exponential-backoff retries (Backoff) — a failed or bounced
//    batch is re-queued and the worker cools off before its next attempt;
//  - straggler detection: an in-flight cell running far past the median
//    completion time is speculatively re-dispatched to another worker; the
//    first terminal result wins and later duplicates are discarded (cells
//    are seeded, so every copy computes identical metrics — the discard
//    cannot change the output);
//  - permanent retirement of flapping workers (HARP-style: stop retrying a
//    component that has proven itself bad), audited in the registry's
//    retirement log;
//  - graceful degradation: when the live fleet shrinks below `min_fleet`
//    (or was empty to begin with), remaining cells run on a local
//    sim::SweepRunner, so a dead fleet degrades to "slow", never "wrong".
//
// Like SweepRunner, outcomes come back indexed exactly like the submitted
// grid, and every cell is seeded by its options — so a fabric run, however
// chaotic the path, is bit-exact against a single-node run of the same
// grid. That equivalence is the CI chaos gate.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "fabric/backoff.hpp"
#include "fabric/registry.hpp"
#include "metrics/clock.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::fabric {

struct FabricConfig {
  std::vector<WorkerEndpoint> workers;  ///< empty = run everything locally
  BackoffPolicy backoff{};
  u64 seed = 1;                   ///< jitter streams derive from this
  unsigned retire_after = 3;      ///< consecutive failures -> retirement
  unsigned max_attempts = 6;      ///< dispatches per cell before it fails
  std::size_t batch_size = 4;     ///< cells submitted per worker dispatch
  u64 call_timeout_ms = 10'000;   ///< per wire round trip (submit/probe)
  u64 job_wait_ms = 300'000;      ///< result-wait budget per cell
  double straggler_factor = 4.0;  ///< x median cell wall -> speculate
  u64 straggler_min_ms = 2'000;   ///< never speculate younger cells
  std::size_t min_fleet = 1;      ///< live workers below this -> degrade
  bool allow_local_fallback = true;
  unsigned local_jobs = 0;        ///< SweepRunner threads when degraded
  u64 probe_timeout_ms = 2'000;   ///< health-probe round-trip budget
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
  std::string worker;      ///< winner's endpoint name, or "local"
  unsigned attempts = 0;   ///< dispatches this cell consumed
  bool speculative = false;  ///< won by a speculative duplicate
  bool ok() const { return error.empty(); }
};

struct FabricStats {
  u64 dispatches = 0;       ///< batches sent to workers
  u64 jobs_remote = 0;      ///< cells won by the fleet
  u64 jobs_local = 0;       ///< cells won by degraded-mode fallback
  u64 jobs_cached = 0;      ///< cells served from the result store
  u64 store_inserts = 0;    ///< completed cells written to the store
  u64 retries = 0;          ///< cell re-queues after a failure
  u64 speculative_dispatches = 0;
  u64 duplicates_discarded = 0;  ///< lost the first-result-wins race
  u64 worker_failures = 0;  ///< failed round trips (all kinds)
  u64 busy_backoffs = 0;    ///< kBusy bounces absorbed with backoff
  u64 probes = 0;
  u64 probe_failures = 0;
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

  explicit Coordinator(FabricConfig config);

  /// Health-probe every non-retired worker once; failures score against
  /// the worker (and can retire it). Returns the live-worker count.
  std::size_t probe_fleet();

  /// Run the whole grid to completion. Outcomes are indexed exactly like
  /// `grid`. Never throws for per-cell or per-worker trouble — a cell that
  /// cannot be computed anywhere comes back with `error` set.
  std::vector<FabricOutcome> run(const std::vector<sim::SweepJob>& grid,
                                 const ProgressFn& progress = nullptr);

  const WorkerRegistry& registry() const { return registry_; }
  FabricStats stats() const;
  void reset_stats();

 private:
  struct Cell {
    bool done = false;
    bool queued = false;      ///< sitting in pending_
    bool speculated = false;  ///< already re-dispatched once
    unsigned attempts = 0;
    unsigned inflight = 0;
    metrics::TimePoint dispatched_at{};
  };

  struct RunState {
    const std::vector<sim::SweepJob>* grid = nullptr;
    std::vector<FabricOutcome>* out = nullptr;
    std::vector<Cell> cells;
    std::deque<std::size_t> pending;
    std::size_t completed = 0;
    std::vector<double> completion_ms;  ///< for the straggler median
    ProgressFn progress;
    bool finished = false;  ///< all cells terminal; workers may exit
  };

  void worker_loop(std::size_t worker_idx, RunState& rs);
  /// Claim up to batch_size pending cells. Caller holds no lock.
  std::vector<std::size_t> claim_batch(RunState& rs);
  /// Terminal delivery; first result wins. Returns false for a discarded
  /// duplicate. Caller holds no lock.
  bool deliver(RunState& rs, std::size_t index, FabricOutcome outcome);
  /// A dispatch that did not finish: back onto the queue, or fail the cell
  /// when its attempt budget is spent. `charge_attempt` is false for cells
  /// that never reached a worker (busy bounces). Caller holds no lock.
  void requeue(RunState& rs, std::size_t index, const std::string& error,
               bool charge_attempt = true);
  void speculate_stragglers(RunState& rs);
  void run_locally(RunState& rs);
  bool fleet_degraded() const;

  FabricConfig config_;
  WorkerRegistry registry_;
  /// Present when config.store_dir is set. Internally locked; consulted
  /// before and after a run, never while holding mutex_.
  std::unique_ptr<store::SweepCache> cache_;

  /// Guards stats_ plus the per-run RunState (cells/pending/completed/
  /// finished) threaded through the private helpers — RunState is a local
  /// in run(), so its members cannot carry AEEP_GUARDED_BY themselves.
  mutable aeep::Mutex mutex_;
  aeep::CondVar cv_work_;  ///< pending gained work / finished
  aeep::CondVar cv_main_;  ///< a cell completed
  FabricStats stats_ AEEP_GUARDED_BY(mutex_){};
};

}  // namespace aeep::fabric
