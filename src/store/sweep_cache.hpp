// Job-level view of the result store: content-addressed caching of whole
// sweep cells.
//
// A SweepJob's digest (store/digest.hpp) keys one payload form:
//
//   {"v": 2, "benchmark": "<name>", "result": <sim::run_result_to_json doc>}
//
// The result is the lossless RunResult codec (sim/result_json.hpp), so a
// hit is the RunResult the cell computed, field for field, whoever wrote
// it: the benches and `aeep_coord --local` (run_grid_cached), a fabric
// Coordinator (from its workers' result replies), or aeep_served. The
// metrics view is never stored; callers render it from the RunResult at
// their reporting edge. A payload that does not decode — an older payload
// version, a foreign document — reads as a miss.
//
// Keys fold in the running executable's build digest
// (store/build_digest.hpp), so a binary hits only records that it wrote
// itself.
#pragma once

#include <optional>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"

namespace aeep::store {

/// Counter snapshot (SweepCache::stats / reset_stats). Uncacheable jobs
/// (capture runs, unreadable traces) count separately from misses so a
/// "why is my hit rate low" investigation can tell the two apart.
struct SweepCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 uncacheable = 0;
  u64 inserts = 0;
};

class SweepCache {
 public:
  /// Opens (or creates) the store under `config.dir`. Throws
  /// trace::TraceError when the directory's segment is not a store segment.
  explicit SweepCache(StoreConfig config);

  /// The stored RunResult for `job`, or nullopt on miss / uncacheable job.
  std::optional<sim::RunResult> lookup(const sim::SweepJob& job)
      AEEP_EXCLUDES(mutex_);

  /// Store a completed cell. No-op for uncacheable jobs.
  void insert(const sim::SweepJob& job, const sim::RunResult& result)
      AEEP_EXCLUDES(mutex_);

  SweepCacheStats stats() const AEEP_EXCLUDES(mutex_);
  void reset_stats() AEEP_EXCLUDES(mutex_);

  /// The backing store, for maintenance surfaces (aeep_store info/gc).
  ResultStore& result_store() { return store_; }

 private:
  ResultStore store_;
  mutable aeep::Mutex mutex_;
  SweepCacheStats stats_ AEEP_GUARDED_BY(mutex_){};
};

/// SweepRunner::run with a cache in front: cells already in `cache` are
/// served without touching the runner's pool; the rest run as one
/// (smaller) grid, and every one that finishes is inserted. A failed cell
/// is captured in its outcome, never thrown, and costs the others nothing.
/// `cache == nullptr` degrades to a plain `runner.run(grid, progress)`.
///
/// Outcomes are indexed like `grid`; a hit has wall_seconds 0.0 (nothing
/// ran) and is byte-identical to the run that produced it. Progress events
/// fire for every cell — hits first, in grid order — and `completed` stays
/// strictly increasing 1..N across the hit and miss phases, so existing
/// status-line callbacks work unchanged.
std::vector<sim::SweepOutcome> run_grid_cached(
    const sim::SweepRunner& runner, const std::vector<sim::SweepJob>& grid,
    SweepCache* cache, const sim::SweepRunner::ProgressFn& progress = nullptr);

}  // namespace aeep::store
