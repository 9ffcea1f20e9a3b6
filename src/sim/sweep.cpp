#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "metrics/clock.hpp"
#include "metrics/registry.hpp"

namespace aeep::sim {

SweepOutcome run_cell(const SweepJob& job) {
  // Resolved once per process; every cell's wall clock lands in the same
  // instrument whichever thread ran it.
  static metrics::Histogram& cell_us =
      metrics::Registry::instance().histogram("sim.sweep.cell_us");
  SweepOutcome out;
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
  return out;
}

unsigned SweepRunner::default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepJob>& grid,
                                           const ProgressFn& progress) const {
  std::vector<SweepOutcome> out(grid.size());
  // Workers draw cell indices from one counter until it runs past the grid.
  std::atomic<std::size_t> next{0};
  Mutex progress_mutex;
  std::size_t completed = 0;  // only touched while holding progress_mutex
  const auto worker = [&] {
    for (std::size_t i = next++; i < grid.size(); i = next++) {
      out[i] = run_cell(grid[i]);
      if (progress) {
        const MutexLock lock(progress_mutex);
        progress({++completed, grid.size(), i, &grid[i], &out[i]});
      }
    }
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, grid.size()));
  if (workers <= 1) {
    // Inline serial path: the reference semantics parallel runs must match.
    worker();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
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
