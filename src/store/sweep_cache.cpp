#include "store/sweep_cache.hpp"

#include <utility>

#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "sim/result_json.hpp"

namespace aeep::store {

namespace {
constexpr u64 kPayloadVersion = 2;

// Store-level telemetry, shared by every SweepCache in the process (the
// served cache and a fabric coordinator's cache count into one place).
metrics::Histogram& lookup_us_hist() {
  static metrics::Histogram& h =
      metrics::Registry::instance().histogram("store.lookup_us");
  return h;
}
metrics::Histogram& insert_us_hist() {
  static metrics::Histogram& h =
      metrics::Registry::instance().histogram("store.insert_us");
  return h;
}
metrics::Counter& hits_counter() {
  static metrics::Counter& c =
      metrics::Registry::instance().counter("store.hits");
  return c;
}
metrics::Counter& misses_counter() {
  static metrics::Counter& c =
      metrics::Registry::instance().counter("store.misses");
  return c;
}
}  // namespace

SweepCache::SweepCache(StoreConfig config) : store_(std::move(config)) {}

std::optional<sim::RunResult> SweepCache::lookup(const sim::SweepJob& job) {
  const metrics::ScopedTimer span(lookup_us_hist());
  const std::optional<Digest> key = job_digest(job);
  if (!key) {
    const MutexLock lock(mutex_);
    ++stats_.uncacheable;
    return std::nullopt;
  }
  const std::optional<JsonValue> payload = store_.lookup(*key);
  if (payload && payload->get_u64("v") == kPayloadVersion) {
    if (const JsonValue* doc = payload->find("result")) {
      if (std::optional<sim::RunResult> r = sim::run_result_from_json(*doc)) {
        const MutexLock lock(mutex_);
        ++stats_.hits;
        hits_counter().increment();
        return r;
      }
    }
  }
  const MutexLock lock(mutex_);
  ++stats_.misses;
  misses_counter().increment();
  return std::nullopt;
}

void SweepCache::insert(const sim::SweepJob& job, const sim::RunResult& result) {
  const metrics::ScopedTimer span(insert_us_hist());
  const std::optional<Digest> key = job_digest(job);
  if (!key) {
    const MutexLock lock(mutex_);
    ++stats_.uncacheable;
    return;
  }
  JsonValue payload = JsonValue::object();
  payload.set("v", JsonValue::number(kPayloadVersion));
  payload.set("benchmark", JsonValue::string(job.benchmark));
  payload.set("result", sim::run_result_to_json(result));
  store_.insert(*key, payload);
  const MutexLock lock(mutex_);
  ++stats_.inserts;
}

SweepCacheStats SweepCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

void SweepCache::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = SweepCacheStats{};
}

std::vector<sim::SweepOutcome> run_grid_cached(
    const sim::SweepRunner& runner, const std::vector<sim::SweepJob>& grid,
    SweepCache* cache, const sim::SweepRunner::ProgressFn& progress) {
  if (!cache) return runner.run(grid, progress);

  const std::size_t n = grid.size();
  std::vector<sim::SweepOutcome> out(n);
  std::vector<std::size_t> miss_indices;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<sim::RunResult> hit = cache->lookup(grid[i]);
    if (!hit) {
      miss_indices.push_back(i);
      continue;
    }
    out[i].result = std::move(*hit);
    ++completed;
    if (progress) progress({completed, n, i, &grid[i], &out[i]});
  }
  if (miss_indices.empty()) return out;

  std::vector<sim::SweepJob> miss_grid;
  miss_grid.reserve(miss_indices.size());
  for (const std::size_t i : miss_indices) miss_grid.push_back(grid[i]);

  // Re-base the runner's progress events onto the full grid: completed
  // continues from the hit count, job_index maps back to the caller's grid.
  sim::SweepRunner::ProgressFn wrapped;
  if (progress) {
    const std::size_t hits = completed;
    wrapped = [&, hits](const sim::SweepProgress& p) {
      sim::SweepProgress q = p;
      q.completed = hits + p.completed;
      q.total = n;
      q.job_index = miss_indices[p.job_index];
      progress(q);
    };
  }

  std::vector<sim::SweepOutcome> ran = runner.run(miss_grid, wrapped);
  for (std::size_t k = 0; k < miss_indices.size(); ++k) {
    const std::size_t i = miss_indices[k];
    if (ran[k].ok()) cache->insert(grid[i], ran[k].result);
    out[i] = std::move(ran[k]);
  }
  return out;
}

}  // namespace aeep::store
