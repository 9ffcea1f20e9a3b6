// Tests for the content-addressed result store (src/store/): digest
// semantics (what makes two cells "the same work"), the lossless RunResult
// codec, the segmented-LRU index with its deterministic eviction order,
// crash recovery (a torn tail must cost exactly the torn record, nothing
// before it), GC compaction, and run_grid_cached — a warm re-run must be
// bit-exact with zero simulation work.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/result_json.hpp"
#include "sim/sweep.hpp"
#include "store/build_digest.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::store {
namespace {

namespace fs = std::filesystem;

/// A fresh store directory per test (removed first, so reruns start cold).
std::string temp_dir(const char* name) {
  const std::string dir =
      testing::TempDir() + "aeep_store_test_" + name;
  fs::remove_all(dir);
  return dir;
}

Digest key_of(u64 v) { return Digest{v}; }

JsonValue small_payload(u64 n) {
  JsonValue j = JsonValue::object();
  j.set("n", JsonValue::number(n));
  j.set("tag", JsonValue::string("payload-" + std::to_string(n)));
  return j;
}

sim::ExperimentOptions small_options(u64 seed = 42) {
  sim::ExperimentOptions eo;
  eo.instructions = 20'000;
  eo.warmup_instructions = 5'000;
  eo.seed = seed;
  return eo;
}

/// gzip × the three protection schemes, small enough to simulate in-test.
std::vector<sim::SweepJob> small_grid() {
  std::vector<sim::SweepJob> grid;
  for (const auto scheme :
       {protect::SchemeKind::kUniformEcc, protect::SchemeKind::kNonUniform,
        protect::SchemeKind::kSharedEccArray}) {
    sim::SweepJob job{"gzip", small_options(), protect::to_string(scheme)};
    job.options.scheme = scheme;
    grid.push_back(std::move(job));
  }
  return grid;
}

// --- digest ----------------------------------------------------------------

TEST(Digest, HexRoundTripsAndRejectsMalformed) {
  const Digest d{0x0123456789abcdefULL};
  EXPECT_EQ(d.hex(), "0123456789abcdef");
  const auto back = Digest::from_hex(d.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);

  EXPECT_FALSE(Digest::from_hex("").has_value());
  EXPECT_FALSE(Digest::from_hex("123").has_value());
  EXPECT_FALSE(Digest::from_hex("0123456789abcdef0").has_value());
  EXPECT_FALSE(Digest::from_hex("0123456789abcdeg").has_value());
}

TEST(Digest, SemanticFieldsChangeItTagAndLocationDoNot) {
  const sim::SweepJob base{"gzip", small_options(), "baseline"};
  const auto d0 = job_digest(base);
  ASSERT_TRUE(d0.has_value());

  // Same spec, different display tag: same work, same cache line.
  sim::SweepJob retagged = base;
  retagged.tag = "renamed";
  EXPECT_EQ(job_digest(retagged), d0);

  // Any semantic knob misses.
  sim::SweepJob other = base;
  other.options.seed = 43;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.options.instructions = 30'000;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.options.scheme = protect::SchemeKind::kSharedEccArray;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.benchmark = "mcf";
  EXPECT_NE(job_digest(other), d0);
}

TEST(Digest, DifferentBuildMissesSameBuildHits) {
  const sim::SweepJob job{"gzip", small_options(), "baseline"};

  set_build_digest_for_testing(0x1111);
  const auto build_a = job_digest(job);
  const auto build_a_again = job_digest(job);
  set_build_digest_for_testing(0x2222);
  const auto build_b = job_digest(job);
  set_build_digest_for_testing(0);  // restore the real build identity
  const auto real = job_digest(job);

  ASSERT_TRUE(build_a.has_value());
  ASSERT_TRUE(build_b.has_value());
  ASSERT_TRUE(real.has_value());
  // Same job under the same build always keys identically...
  EXPECT_EQ(build_a, build_a_again);
  // ...but a different simulator build must cold-miss, never serve
  // payloads the old code computed.
  EXPECT_NE(build_a, build_b);
  EXPECT_NE(build_a, real);
  EXPECT_NE(build_b, real);
}

TEST(Digest, CaptureJobsAreUncacheable) {
  sim::SweepJob job{"gzip", small_options(), ""};
  job.options.capture_path = "/tmp/out.aeept";
  EXPECT_FALSE(job_digest(job).has_value());
}

// --- RunResult codec -------------------------------------------------------

TEST(ResultCodec, RoundTripsARealRunExactly) {
  const std::vector<sim::RunResult> r =
      sim::SweepRunner(1).run_or_throw(small_grid());
  for (const sim::RunResult& result : r) {
    const auto back =
        sim::run_result_from_json(sim::run_result_to_json(result));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result) << result.benchmark;
  }
}

TEST(ResultCodec, RejectsForeignDocuments) {
  EXPECT_FALSE(sim::run_result_from_json(JsonValue::object()).has_value());
  // A future codec version degrades to a miss, never a bad decode.
  JsonValue j = sim::run_result_to_json(sim::RunResult{});
  j.set("codec", JsonValue::number(u64{999}));
  EXPECT_FALSE(sim::run_result_from_json(j).has_value());
}

// --- ResultStore: persistence and recovery ---------------------------------

TEST(ResultStore, InsertLookupAndReopenRecoverEverything) {
  const std::string dir = temp_dir("reopen");
  {
    ResultStore store({dir, 64});
    for (u64 i = 1; i <= 3; ++i) store.insert(key_of(i), small_payload(i));
    EXPECT_EQ(store.size(), 3u);
    const auto hit = store.lookup(key_of(2));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->dump(0), small_payload(2).dump(0));
    EXPECT_FALSE(store.lookup(key_of(99)).has_value());
    EXPECT_EQ(store.stats().inserts, 3u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
  }
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.stats().recovered_records, 3u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
  for (u64 i = 1; i <= 3; ++i) {
    const auto hit = reopened.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->dump(0), small_payload(i).dump(0));
  }
}

TEST(ResultStore, LaterRecordWinsAfterUpdateAndReopen) {
  const std::string dir = temp_dir("update");
  {
    ResultStore store({dir, 64});
    store.insert(key_of(7), small_payload(1));
    store.insert(key_of(7), small_payload(2));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_EQ(store.stats().updates, 1u);
    EXPECT_EQ(store.lookup(key_of(7))->dump(0), small_payload(2).dump(0));
  }
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.lookup(key_of(7))->dump(0), small_payload(2).dump(0));
}

TEST(ResultStore, TornTailCostsExactlyTheTornRecord) {
  const std::string dir = temp_dir("torn");
  u64 full_bytes = 0;
  u64 two_record_bytes = 0;
  {
    ResultStore store({dir, 64});
    store.insert(key_of(1), small_payload(1));
    store.insert(key_of(2), small_payload(2));
    two_record_bytes = store.disk_bytes();
    store.insert(key_of(3), small_payload(3));
    full_bytes = store.disk_bytes();
  }
  // Simulate a crash mid-append of record 3: cut its payload short.
  fs::resize_file(ResultStore::segment_path(dir), full_bytes - 5);

  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.stats().recovered_records, 2u);
  EXPECT_EQ(reopened.stats().dropped_records, 1u);
  // The torn tail is physically truncated to the last whole record...
  EXPECT_EQ(reopened.disk_bytes(), two_record_bytes);
  EXPECT_EQ(fs::file_size(ResultStore::segment_path(dir)), two_record_bytes);
  // ...everything before it survives, and the store accepts new appends.
  EXPECT_TRUE(reopened.lookup(key_of(1)).has_value());
  EXPECT_TRUE(reopened.lookup(key_of(2)).has_value());
  EXPECT_FALSE(reopened.lookup(key_of(3)).has_value());
  reopened.insert(key_of(4), small_payload(4));
  EXPECT_TRUE(reopened.lookup(key_of(4)).has_value());
}

TEST(ResultStore, CorruptPayloadIsDroppedNeverReturned) {
  const std::string dir = temp_dir("corrupt");
  ResultStore store({dir, 64});
  store.insert(key_of(1), small_payload(1));

  // Flip one payload byte behind the store's back (header is 8 bytes,
  // record framing 9 more; +4 lands inside the key/JSON bytes).
  std::fstream f(ResultStore::segment_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(8 + 9 + 4);
  char c = 0;
  f.get(c);
  f.seekp(8 + 9 + 4);
  f.put(static_cast<char>(c ^ 0x40));
  f.close();

  EXPECT_FALSE(store.lookup(key_of(1)).has_value());
  EXPECT_EQ(store.stats().corrupt_payloads, 1u);
  EXPECT_EQ(store.size(), 0u);
}

// --- ResultStore: segmented LRU --------------------------------------------

TEST(ResultStore, EvictionOrderIsDeterministic) {
  const std::string dir = temp_dir("evict");
  ResultStore store({dir, 4});
  for (u64 i = 1; i <= 4; ++i) store.insert(key_of(i), small_payload(i));

  // First lookup is the second touch: key 2 earns protection.
  ASSERT_TRUE(store.lookup(key_of(2)).has_value());

  // Probationary LRU..MRU first (1, 3, 4), then protected (2): the first
  // entries() line is always the next eviction victim.
  auto order = store.entries();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].key, key_of(1));
  EXPECT_EQ(order[1].key, key_of(3));
  EXPECT_EQ(order[2].key, key_of(4));
  EXPECT_EQ(order[3].key, key_of(2));
  EXPECT_FALSE(order[0].protected_segment);
  EXPECT_TRUE(order[3].protected_segment);

  // A fifth insert at capacity evicts the probationary LRU — key 1, not
  // the protected key 2.
  store.insert(key_of(5), small_payload(5));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.lookup(key_of(1)).has_value());
  EXPECT_TRUE(store.lookup(key_of(2)).has_value());

  order = store.entries();
  EXPECT_EQ(order[0].key, key_of(3));  // new probationary LRU
}

TEST(ResultStore, ProtectedOverflowDemotesItsLruNotOutOfTheStore) {
  const std::string dir = temp_dir("demote");
  ResultStore store({dir, 4});  // protected cap = 2
  for (u64 i = 1; i <= 4; ++i) store.insert(key_of(i), small_payload(i));
  // Promote three entries into a two-slot protected segment.
  ASSERT_TRUE(store.lookup(key_of(1)).has_value());
  ASSERT_TRUE(store.lookup(key_of(2)).has_value());
  ASSERT_TRUE(store.lookup(key_of(3)).has_value());

  // Key 1 (protected LRU) fell back to probationary MRU; nothing evicted.
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evictions, 0u);
  const auto order = store.entries();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].key, key_of(4));  // untouched probationary
  EXPECT_EQ(order[1].key, key_of(1));  // demoted, one touch from protection
  EXPECT_FALSE(order[1].protected_segment);
  EXPECT_EQ(order[2].key, key_of(2));
  EXPECT_EQ(order[3].key, key_of(3));
  EXPECT_TRUE(order[3].protected_segment);
}

TEST(ResultStore, GcEvictsProbationaryFirstAndCompactsDeadBytes) {
  const std::string dir = temp_dir("gc");
  ResultStore store({dir, 64});
  for (u64 i = 1; i <= 6; ++i) store.insert(key_of(i), small_payload(i));
  // Rewrite key 1 so the segment carries a dead record.
  store.insert(key_of(1), small_payload(11));
  // Protect keys 5 and 6.
  ASSERT_TRUE(store.lookup(key_of(5)).has_value());
  ASSERT_TRUE(store.lookup(key_of(6)).has_value());
  const u64 before = store.disk_bytes();

  // A huge budget evicts nothing but still compacts the dead record.
  EXPECT_EQ(store.gc(u64{1} << 30), 0u);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_LT(store.disk_bytes(), before);
  EXPECT_EQ(store.lookup(key_of(1))->dump(0), small_payload(11).dump(0));

  // A tight budget evicts probationary LRU-first: 2, 3, 4 go before the
  // protected 5 and 6. (Key 1's lookup above protected it too.)
  const u64 keep_three =
      8 + 3 * (store.disk_bytes() - 8) / 6 + 8;  // header + ~3 records
  const u64 evicted = store.gc(keep_three);
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_LE(store.disk_bytes(), keep_three);
  EXPECT_FALSE(store.lookup(key_of(2)).has_value());
  EXPECT_FALSE(store.lookup(key_of(3)).has_value());
  EXPECT_FALSE(store.lookup(key_of(4)).has_value());
  EXPECT_TRUE(store.lookup(key_of(5)).has_value());
  EXPECT_TRUE(store.lookup(key_of(6)).has_value());

  // The compacted segment reopens clean.
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
}

// --- SweepCache / run_grid_cached ------------------------------------------

TEST(SweepCache, WarmRunGridCachedIsBitExactWithZeroSimulation) {
  const std::string dir = temp_dir("warm");
  const auto grid = small_grid();
  const sim::SweepRunner runner(2);

  SweepCache cold({dir, 64});
  std::vector<std::size_t> completed_seq;
  const auto cold_results = sim::results_or_throw(
      grid, run_grid_cached(runner, grid, &cold,
                            [&](const sim::SweepProgress& p) {
                              completed_seq.push_back(p.completed);
                            }));
  ASSERT_EQ(cold_results.size(), grid.size());
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().misses, grid.size());
  EXPECT_EQ(cold.stats().inserts, grid.size());
  EXPECT_EQ(completed_seq.size(), grid.size());

  // The same grid against a reopened store: every cell served from disk,
  // the runner's pool never touched, results field-for-field identical.
  SweepCache warm({dir, 64});
  completed_seq.clear();
  std::vector<double> warm_walls;
  std::vector<char> saw_job(grid.size(), 0);
  const auto warm_results = sim::results_or_throw(
      grid,
      run_grid_cached(runner, grid, &warm,
                      [&](const sim::SweepProgress& p) {
                        completed_seq.push_back(p.completed);
                        saw_job[p.job_index] = 1;
                        EXPECT_EQ(p.total, grid.size());
                        ASSERT_NE(p.outcome, nullptr);
                        EXPECT_TRUE(p.outcome->ok());
                      }),
      &warm_walls);
  EXPECT_EQ(warm.stats().hits, grid.size());
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().inserts, 0u);
  EXPECT_EQ(warm_results, cold_results);

  // Progress stays 1..N and covers every cell; cached cells report zero
  // wall time (nothing ran).
  ASSERT_EQ(completed_seq.size(), grid.size());
  for (std::size_t i = 0; i < completed_seq.size(); ++i)
    EXPECT_EQ(completed_seq[i], i + 1);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(saw_job[i]) << i;
    EXPECT_EQ(warm_walls[i], 0.0) << i;
  }
}

TEST(SweepCache, PartialHitsRunOnlyTheMisses) {
  const std::string dir = temp_dir("partial");
  const auto grid = small_grid();
  const sim::SweepRunner runner(2);

  SweepCache cache({dir, 64});
  // Pre-seed the middle cell only.
  const auto seeded =
      runner.run_or_throw({grid[1]}, nullptr, nullptr);
  cache.insert(grid[1], seeded[0]);
  cache.reset_stats();

  const auto results =
      sim::results_or_throw(grid, run_grid_cached(runner, grid, &cache));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, grid.size() - 1);
  EXPECT_EQ(cache.stats().inserts, grid.size() - 1);
  EXPECT_EQ(results[1], seeded[0]);
  // Outcomes land at their grid positions regardless of hit/miss split.
  const auto all = runner.run_or_throw(grid);
  EXPECT_EQ(results, all);
}

TEST(SweepCache, AFailedCellIsCapturedAndTheRestAreStored) {
  const std::string dir = temp_dir("failed_cell");
  auto grid = small_grid();
  grid.insert(grid.begin() + 1, {"no-such-benchmark", small_options(), "bad"});
  const sim::SweepRunner runner(2);

  SweepCache cache({dir, 64});
  const auto outcomes = run_grid_cached(runner, grid, &cache);
  ASSERT_EQ(outcomes.size(), grid.size());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(cache.stats().inserts, grid.size() - 1);
  EXPECT_THROW(sim::results_or_throw(grid, outcomes), std::runtime_error);

  // The cells that did finish are served on the next run; the failed one
  // runs (and fails) again.
  cache.reset_stats();
  const auto again = run_grid_cached(runner, grid, &cache);
  EXPECT_EQ(cache.stats().hits, grid.size() - 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_FALSE(again[1].ok());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(again[i].ok()) << again[i].error;
    EXPECT_EQ(again[i].result, outcomes[i].result) << i;
  }
}

}  // namespace
}  // namespace aeep::store
