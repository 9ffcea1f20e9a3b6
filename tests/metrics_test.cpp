// Tests for the telemetry subsystem (src/metrics/): the log2 bucket
// layout (bucket 0 = exact zeros, bucket i = [2^(i-1), 2^i), bucket 63
// saturates), percentile estimation at the degenerate ends (empty,
// one-sample), interval diffs with reset detection, the JSON wire
// round-trip, registry reference stability, span timers, and a
// concurrent-record stress that the TSan CI job replays under the race
// detector.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "metrics/clock.hpp"
#include "metrics/histogram.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"

namespace aeep::metrics {
namespace {

// --------------------------------------------------------------------------
// Bucket layout

TEST(Buckets, IndexFollowsTheLog2Layout) {
  EXPECT_EQ(bucket_index(0), 0u);
  EXPECT_EQ(bucket_index(1), 1u);
  EXPECT_EQ(bucket_index(2), 2u);
  EXPECT_EQ(bucket_index(3), 2u);
  EXPECT_EQ(bucket_index(4), 3u);
  EXPECT_EQ(bucket_index(7), 3u);
  EXPECT_EQ(bucket_index(8), 4u);
  EXPECT_EQ(bucket_index(1023), 10u);
  EXPECT_EQ(bucket_index(1024), 11u);
}

TEST(Buckets, EveryPowerOfTwoOpensItsOwnBucket) {
  for (std::size_t i = 1; i < kHistogramBuckets - 1; ++i) {
    const u64 lo = u64{1} << (i - 1);
    EXPECT_EQ(bucket_index(lo), i) << "2^" << (i - 1);
    EXPECT_EQ(bucket_index(lo - 1), i - 1) << "2^" << (i - 1) << " - 1";
  }
}

TEST(Buckets, TopBucketSaturatesNothingIsDropped) {
  EXPECT_EQ(bucket_index(u64{1} << 62), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_index((u64{1} << 62) + 1), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_index(~u64{0}), kHistogramBuckets - 1);
}

TEST(Buckets, BoundsAgreeWithIndex) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(bucket_index(bucket_lower_bound(i)), i) << "bucket " << i;
    EXPECT_LE(bucket_lower_bound(i), bucket_upper_bound(i)) << "bucket " << i;
    if (i < kHistogramBuckets - 1) {
      EXPECT_EQ(bucket_index(bucket_upper_bound(i)), i) << "bucket " << i;
    }
  }
  EXPECT_EQ(bucket_upper_bound(kHistogramBuckets - 1), ~u64{0});
}

// --------------------------------------------------------------------------
// Snapshot semantics

TEST(Histogram, EmptyReportsZeroEverywhere) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.0), 0.0);
  EXPECT_EQ(s.percentile(50.0), 0.0);
  EXPECT_EQ(s.percentile(100.0), 0.0);
}

TEST(Histogram, OneSampleIsExactAtEveryPercentile) {
  Histogram h;
  h.record(37);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 37u);
  EXPECT_EQ(s.min, 37u);
  EXPECT_EQ(s.max, 37u);
  EXPECT_EQ(s.mean(), 37.0);
  // Interpolation clamps against the exact min/max: a single sample is
  // reported exactly no matter which percentile is asked for.
  for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(s.percentile(p), 37.0) << "p" << p;
}

TEST(Histogram, PercentilesAreOrderedAndBoundedByMinMax) {
  Histogram h;
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  double prev = 0.0;
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double v = s.percentile(p);
    EXPECT_GE(v, static_cast<double>(s.min)) << "p" << p;
    EXPECT_LE(v, static_cast<double>(s.max)) << "p" << p;
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_EQ(s.percentile(0.0), 1.0);
  EXPECT_EQ(s.percentile(100.0), 1000.0);
}

TEST(Histogram, ZerosLandInBucketZeroAndHugeValuesSaturate) {
  Histogram h;
  h.record(0);
  h.record(0);
  h.record(u64{1} << 62);
  h.record(~u64{0});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[kHistogramBuckets - 1], 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, ~u64{0});
}

TEST(Histogram, ResetReturnsToEmpty) {
  Histogram h;
  h.record(5);
  h.record(500);
  ASSERT_EQ(h.snapshot().count, 2u);
  h.reset();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.percentile(50.0), 0.0);
}

// --------------------------------------------------------------------------
// Diff

HistogramSnapshot snap_of(std::initializer_list<u64> values) {
  Histogram h;
  for (const u64 v : values) h.record(v);
  return h.snapshot();
}

void expect_same(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i)
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
}

TEST(Diff, IntervalCountsAreExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  const HistogramSnapshot before = h.snapshot();
  h.record(30);
  h.record(3000);
  const HistogramSnapshot after = h.snapshot();

  const auto interval = after.diff_since(before);
  ASSERT_TRUE(interval.has_value());
  EXPECT_EQ(interval->count, 2u);
  EXPECT_EQ(interval->sum, 3030u);
  EXPECT_EQ(interval->buckets[bucket_index(30)], 1u);
  EXPECT_EQ(interval->buckets[bucket_index(3000)], 1u);
  // min/max of the interval population are re-derived from the occupied
  // bucket bounds: a conservative envelope around the true values.
  EXPECT_LE(interval->min, 30u);
  EXPECT_GE(interval->max, 3000u);
}

TEST(Diff, SelfDiffIsEmptyAndResetIsDetected) {
  Histogram h;
  h.record(100);
  h.record(200);
  const HistogramSnapshot s = h.snapshot();
  const auto empty = s.diff_since(s);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  // Reset between the snapshots: some bucket would go negative, so the
  // diff must refuse rather than fabricate an interval.
  h.reset();
  h.record(100);
  EXPECT_FALSE(h.snapshot().diff_since(s).has_value());
}

// --------------------------------------------------------------------------
// JSON wire round-trip

TEST(Json, SnapshotRoundTripsLosslessly) {
  const HistogramSnapshot s = snap_of({0, 1, 17, 17, 4096, ~u64{0}});
  const auto back = HistogramSnapshot::from_json(s.to_json());
  ASSERT_TRUE(back.has_value());
  expect_same(*back, s);
}

TEST(Json, EmptySnapshotRoundTripsAndForeignDocsAreRejected) {
  const auto back = HistogramSnapshot::from_json(HistogramSnapshot{}.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());

  EXPECT_FALSE(HistogramSnapshot::from_json(JsonValue::number(u64{7}))
                   .has_value());
  EXPECT_FALSE(HistogramSnapshot::from_json(JsonValue::object()).has_value());
}

// --------------------------------------------------------------------------
// Registry

TEST(Registry, SameNameSameInstrumentStableAddress) {
  Registry reg;
  Histogram& h1 = reg.histogram("test.alpha_us");
  Counter& c1 = reg.counter("test.events");
  // Force rebalancing inserts between the two resolutions.
  for (int i = 0; i < 64; ++i) {
    reg.histogram("test.filler_us." + std::to_string(i));
    reg.counter("test.filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.histogram("test.alpha_us"), &h1);
  EXPECT_EQ(&reg.counter("test.events"), &c1);

  h1.record(9);
  c1.add(3);
  EXPECT_EQ(reg.histogram("test.alpha_us").snapshot().count, 1u);
  EXPECT_EQ(reg.counter("test.events").value(), 3u);
}

TEST(Registry, SnapshotJsonCarriesEveryInstrument) {
  Registry reg;
  reg.histogram("a.latency_us").record(11);
  reg.counter("a.hits").add(5);

  const JsonValue doc = reg.snapshot_json();
  const JsonValue* hists = doc.find("histograms");
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(hists, nullptr);
  ASSERT_NE(counters, nullptr);
  const JsonValue* lat = hists->find("a.latency_us");
  ASSERT_NE(lat, nullptr);
  const auto back = HistogramSnapshot::from_json(*lat);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->count, 1u);
  EXPECT_EQ(back->sum, 11u);
  const JsonValue* hits = counters->find("a.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->as_u64(0), 5u);
}

TEST(Registry, ResetZeroesButKeepsNamesRegistered) {
  Registry reg;
  Histogram& h = reg.histogram("r.span_us");
  Counter& c = reg.counter("r.events");
  h.record(4);
  c.increment();
  reg.reset();
  EXPECT_TRUE(h.snapshot().empty());
  EXPECT_EQ(c.value(), 0u);
  // The references handed out before the reset are still the live ones.
  EXPECT_EQ(&reg.histogram("r.span_us"), &h);
  EXPECT_EQ(reg.histograms().size(), 1u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

// --------------------------------------------------------------------------
// Span timers

TEST(Timer, ScopeExitRecordsExactlyOnce) {
  Histogram h;
  { const ScopedTimer t(h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Clock, BackwardsIntervalsClampToZero) {
  const TimePoint t0 = now();
  const TimePoint later = t0 + std::chrono::milliseconds(5);
  EXPECT_EQ(us_between(later, t0), 0u);
  EXPECT_EQ(us_between(t0, later), 5000u);
  EXPECT_EQ(ms_between(t0, later), 5.0);
}

// --------------------------------------------------------------------------
// Concurrency (re-run under TSan by the CI race-detector job)

TEST(Concurrency, ParallelRecordsAreAllAccountedFor) {
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 20'000;
  Histogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (u64 i = 0; i < kPerThread; ++i)
        h.record(static_cast<u64>(t) * kPerThread + i);
    });
  }
  for (auto& th : threads) th.join();

  const HistogramSnapshot s = h.snapshot();
  const u64 n = u64{kThreads} * kPerThread;
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.sum, n * (n - 1) / 2);  // recorded 0..n-1 exactly once each
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, n - 1);
}

TEST(Concurrency, RegistryResolutionRacesAreBenign) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // All threads race to register the same names and record through
      // whichever reference they resolve; every record must land.
      for (int i = 0; i < 200; ++i) {
        reg.histogram("c.shared_us").record(static_cast<u64>(i));
        reg.counter("c.shared").increment();
        reg.histogram("c.other_us." + std::to_string(i % 4)).record(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.histogram("c.shared_us").snapshot().count,
            u64{kThreads} * 200);
  EXPECT_EQ(reg.counter("c.shared").value(), u64{kThreads} * 200);
  EXPECT_EQ(reg.snapshot_json().find("histograms")->members().size(), 5u);
}

}  // namespace
}  // namespace aeep::metrics
