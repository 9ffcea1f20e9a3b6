#include "sim/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bitops.hpp"
#include "common/mpmc_queue.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/clock.hpp"
#include "metrics/registry.hpp"

namespace aeep::sim {

namespace {

void execute_job(const SweepJob& job, SweepOutcome& out) {
  // Resolved once per process; every sweep cell's wall clock lands in the
  // same instrument regardless of which pool ran it.
  static metrics::Histogram& cell_us =
      metrics::Registry::instance().histogram("sim.sweep.cell_us");
  const auto start = metrics::now();
  try {
    out.result = run_benchmark(job.benchmark, job.options);
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  const auto end = metrics::now();
  cell_us.record(metrics::us_between(start, end));
  out.wall_seconds = metrics::seconds_between(start, end);
}

}  // namespace

unsigned SweepRunner::default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepJob>& grid,
                                           const ProgressFn& progress) const {
  std::vector<SweepOutcome> out(grid.size());
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, grid.size()));

  if (workers <= 1) {
    // Inline serial path: the reference semantics parallel runs must match.
    for (std::size_t i = 0; i < grid.size(); ++i) {
      execute_job(grid[i], out[i]);
      if (progress) {
        SweepProgress p{i + 1, grid.size(), i, &grid[i], &out[i]};
        progress(p);
      }
    }
    return out;
  }

  // All workers drain one shared lock-free ring. The queue is seeded with
  // every job index before any thread starts, so try_pop() returning false
  // means the grid is exhausted — no stealing or termination protocol
  // needed, and the pop is a couple of atomics instead of a mutex.
  MpmcQueue<std::size_t> work(static_cast<std::size_t>(
      std::max<u64>(2, ceil_pow2(grid.size()))));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!work.try_push(i))
      throw std::logic_error("sweep work queue refused a seeded job");
  }

  // Progress delivery. Completion events land in `pending` under a cheap
  // lock, and whichever worker can grab `delivery_mutex` drains them in
  // arrival order, numbering each event as it is delivered. Workers whose
  // try_lock fails go straight back to simulating — a slow user callback
  // can no longer serialise the pool (it only ever delays the one worker
  // elected deliverer). Callbacks stay serialised and see `completed`
  // strictly increasing 1..N, preserving the documented contract.
  Mutex pending_mutex;
  std::vector<std::size_t> pending;  // guarded by pending_mutex
  Mutex delivery_mutex;
  std::size_t delivered = 0;  // only touched while holding delivery_mutex

  auto deliver_all_pending = [&]() {  // caller must hold delivery_mutex
    for (;;) {
      std::vector<std::size_t> batch;
      {
        const MutexLock lock(pending_mutex);
        batch.swap(pending);
      }
      if (batch.empty()) return;
      for (const std::size_t idx : batch) {
        ++delivered;
        SweepProgress p{delivered, grid.size(), idx, &grid[idx], &out[idx]};
        progress(p);
      }
    }
  };

  auto report = [&](std::size_t idx) {
    if (!progress) return;
    {
      const MutexLock lock(pending_mutex);
      pending.push_back(idx);
    }
    if (delivery_mutex.try_lock()) {
      deliver_all_pending();
      delivery_mutex.unlock();
    }
    // try_lock failed: the current deliverer re-checks `pending` before
    // releasing, but it may already be past that check — any stragglers are
    // flushed by the final drain after the pool joins.
  };

  auto worker_main = [&]() {
    std::size_t idx = 0;
    while (work.try_pop(idx)) {
      execute_job(grid[idx], out[idx]);
      report(idx);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_main);
  for (auto& t : pool) t.join();

  // Flush events stranded by the try_lock race window above.
  if (progress) {
    const MutexLock lock(delivery_mutex);
    deliver_all_pending();
  }
  return out;
}

std::vector<RunResult> results_or_throw(const std::vector<SweepJob>& grid,
                                        std::vector<SweepOutcome> outcomes,
                                        std::vector<double>* wall_seconds) {
  std::vector<RunResult> results;
  results.reserve(outcomes.size());
  if (wall_seconds) {
    wall_seconds->clear();
    wall_seconds->reserve(outcomes.size());
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      throw std::runtime_error("sweep job " + std::to_string(i) + " (" +
                               grid[i].benchmark +
                               (grid[i].tag.empty() ? "" : ":" + grid[i].tag) +
                               ") failed: " + outcomes[i].error);
    }
    if (wall_seconds) wall_seconds->push_back(outcomes[i].wall_seconds);
    results.push_back(std::move(outcomes[i].result));
  }
  return results;
}

SweepRunner::ProgressFn stderr_progress() {
  return [](const SweepProgress& p) {
    std::fprintf(stderr, "[%zu/%zu] %s%s%s%s\n", p.completed, p.total,
                 p.job->benchmark.c_str(), p.job->tag.empty() ? "" : ":",
                 p.job->tag.c_str(),
                 p.outcome->ok() ? "" : "  ** FAILED **");
  };
}

}  // namespace aeep::sim
