// Tests for the parallel sweep engine: determinism across worker counts
// (the load-bearing guarantee — parallelism must never change results),
// per-job failure capture, progress reporting, and a benchmark-list grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <vector>

#include "cache/write_buffer.hpp"
#include "sim/sweep.hpp"

namespace aeep::sim {
namespace {

ExperimentOptions small_options(u64 seed = 42) {
  ExperimentOptions eo;
  eo.instructions = 20'000;
  eo.warmup_instructions = 5'000;
  eo.seed = seed;
  return eo;
}

/// A mixed grid: two benchmarks × {baseline, cleaning, shared-ECC}.
std::vector<SweepJob> small_grid() {
  std::vector<SweepJob> grid;
  for (const char* name : {"gzip", "mcf"}) {
    SweepJob base{name, small_options(), "baseline"};
    grid.push_back(base);

    SweepJob cleaning = base;
    cleaning.options.scheme = protect::SchemeKind::kNonUniform;
    cleaning.options.cleaning_interval = u64{64} << 10;
    cleaning.tag = "cleaning";
    grid.push_back(cleaning);

    SweepJob shared = base;
    shared.options.scheme = protect::SchemeKind::kSharedEccArray;
    shared.options.cleaning_interval = u64{64} << 10;
    shared.tag = "shared";
    grid.push_back(shared);
  }
  return grid;
}

TEST(SweepRunner, SerialAndParallelResultsAreIdentical) {
  const auto grid = small_grid();
  const std::vector<RunResult> serial =
      results_or_throw(grid, SweepRunner(1).run(grid));
  // 8 workers on any machine (threads multiplex fine on fewer cores); the
  // scheduling order differs from serial but the results must not.
  const std::vector<RunResult> parallel =
      results_or_throw(grid, SweepRunner(8).run(grid));

  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << grid[i].benchmark << ":" << grid[i].tag;
  }
}

TEST(SweepRunner, RepeatedParallelRunsAreIdentical) {
  const auto grid = small_grid();
  const std::vector<RunResult> a =
      results_or_throw(grid, SweepRunner(4).run(grid));
  const std::vector<RunResult> b =
      results_or_throw(grid, SweepRunner(4).run(grid));
  EXPECT_EQ(a, b);
}

TEST(SweepRunner, CapturesJobFailuresWithoutAborting) {
  std::vector<SweepJob> grid = small_grid();
  grid.insert(grid.begin() + 1, {"no-such-benchmark", small_options(), "bad"});

  const std::vector<SweepOutcome> outcomes = SweepRunner(4).run(grid);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == 1) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_NE(outcomes[i].error.find("unknown benchmark"), std::string::npos)
          << outcomes[i].error;
    } else {
      EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_GT(outcomes[i].result.core.committed, 0u);
    }
  }
}

TEST(SweepRunner, RunOrThrowReportsFirstFailingJob) {
  std::vector<SweepJob> grid = small_grid();
  grid.push_back({"no-such-benchmark", small_options(), "bad"});
  try {
    results_or_throw(grid, SweepRunner(2).run(grid));
    FAIL() << "expected results_or_throw to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-benchmark"), std::string::npos) << what;
    EXPECT_NE(what.find("bad"), std::string::npos) << what;
  }
}

TEST(SweepRunner, ProgressCoversEveryJobExactlyOnce) {
  const auto grid = small_grid();
  std::mutex mutex;
  std::vector<std::size_t> completed_seq;
  std::set<std::size_t> indices;
  const auto progress = [&](const SweepProgress& p) {
    const std::lock_guard<std::mutex> lock(mutex);
    completed_seq.push_back(p.completed);
    indices.insert(p.job_index);
    EXPECT_EQ(p.total, grid.size());
    ASSERT_NE(p.job, nullptr);
    ASSERT_NE(p.outcome, nullptr);
  };
  SweepRunner(3).run(grid, progress);

  ASSERT_EQ(completed_seq.size(), grid.size());
  // The callback is serialised, so completed counts 1..N in order.
  for (std::size_t i = 0; i < completed_seq.size(); ++i)
    EXPECT_EQ(completed_seq[i], i + 1);
  EXPECT_EQ(indices.size(), grid.size());
}

TEST(SweepRunner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(SweepRunner::default_jobs(), 1u);
  EXPECT_EQ(SweepRunner(0).jobs(), SweepRunner::default_jobs());
  EXPECT_EQ(SweepRunner(5).jobs(), 5u);
}

TEST(SweepRunner, WriteBufferFreeListStaysBounded) {
  // Recycled line storage must never outgrow min(capacity, kFreeListBound),
  // and every run should report the high-water mark it actually reached.
  const auto grid = small_grid();
  const std::vector<RunResult> results =
      results_or_throw(grid, SweepRunner(2).run(grid));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    EXPECT_LE(r.wbuf.free_list_peak,
              std::min<std::size_t>(16, cache::WriteBuffer::kFreeListBound))
        << grid[i].benchmark << ":" << grid[i].tag;
    EXPECT_GT(r.wbuf.free_list_peak, 0u)
        << grid[i].benchmark << ":" << grid[i].tag
        << " drained stores without ever recycling storage";
  }
}

TEST(RunSuite, ParallelSuiteMatchesSerialSuite) {
  const ExperimentOptions eo = small_options();
  const std::vector<std::string> names = {"gzip", "mcf", "swim"};
  std::vector<SweepJob> grid;
  for (const auto& name : names) grid.push_back({name, eo, {}});
  const auto serial = results_or_throw(grid, SweepRunner(1).run(grid));
  const auto parallel = results_or_throw(grid, SweepRunner(4).run(grid));
  ASSERT_EQ(serial.size(), names.size());
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(serial[i].benchmark, names[i]);
}

}  // namespace
}  // namespace aeep::sim
