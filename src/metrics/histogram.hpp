// Lock-cheap log-bucketed latency histogram (joernblog histogram.c style).
//
// Fixed layout: 64 buckets on a log2 scale. Bucket 0 holds exact zeros;
// bucket i (1..62) holds values in [2^(i-1), 2^i); bucket 63 saturates —
// everything >= 2^62 lands there, so no recordable u64 is ever dropped.
// The layout is a compile-time constant, which is what makes the interval
// between two snapshots of one histogram exact: elementwise bucket
// subtraction.
//
// record() is wait-free — one relaxed fetch_add on the bucket plus relaxed
// updates of the exact sum/min/max — so it is safe from any thread,
// including under a caller's mutex (it takes none of its own). snapshot()
// is a relaxed read of all counters: consistent enough for monitoring
// (bucket sums define `count`), not a linearisable cut, and documented as
// such. Percentile estimation interpolates inside the target bucket and
// clamps against the exact min/max, so a one-sample histogram reports that
// exact sample at every percentile.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/json.hpp"
#include "common/types.hpp"

namespace aeep::metrics {

inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index for a value: 0 for 0, otherwise floor(log2(v)) + 1,
/// saturating at 63.
constexpr std::size_t bucket_index(u64 value) {
  if (value == 0) return 0;
  std::size_t idx = 0;
  while (value != 0) {
    value >>= 1;
    ++idx;
  }
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket `i` under the log2 layout.
constexpr u64 bucket_lower_bound(std::size_t i) {
  if (i == 0) return 0;
  return u64{1} << (i - 1);
}

/// Inclusive upper bound of bucket `i`. The saturating top bucket's upper
/// bound is the largest u64.
constexpr u64 bucket_upper_bound(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~u64{0};
  return (u64{1} << i) - 1;
}

/// Plain-data copy of a histogram at one moment: what crosses the wire and
/// lands in JSON snapshots. `count` is always the sum of `buckets` — diff
/// preserves that invariant.
struct HistogramSnapshot {
  u64 buckets[kHistogramBuckets] = {};
  u64 count = 0;
  u64 sum = 0;
  u64 min = 0;  ///< exact smallest recorded value; 0 when count == 0
  u64 max = 0;  ///< exact largest recorded value; 0 when count == 0

  bool empty() const { return count == 0; }

  /// Arithmetic mean of recorded values; 0 when empty.
  double mean() const;

  /// Estimated value at percentile `p` in [0, 100]. Exact for the
  /// population's min (p=0) and max (p=100); interior percentiles
  /// interpolate linearly inside the covering log2 bucket. 0 when empty.
  double percentile(double p) const;

  /// The interval histogram between an older snapshot of the *same*
  /// histogram and this one: elementwise bucket subtraction. min/max of
  /// the interval population are unknowable from totals, so they are
  /// re-derived from the occupied bucket bounds (conservative envelope).
  /// Returns nullopt when `older` is not a prefix of this history (some
  /// bucket would go negative — e.g. the histogram was reset in between).
  std::optional<HistogramSnapshot> diff_since(
      const HistogramSnapshot& older) const;

  /// Wire rendering: raw buckets (sparse [index, count] pairs) plus the
  /// exact scalars and derived mean/p50/p90/p99/p999 for human and CI
  /// consumption. from_json reads only the raw fields back.
  JsonValue to_json() const;
  static std::optional<HistogramSnapshot> from_json(const JsonValue& doc);
};

/// The live, concurrently-recorded histogram. Fixed footprint, no
/// allocation, no mutex; safe to record from any number of threads.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Wait-free. `value` is whatever unit the histogram's name declares
  /// (the convention is microseconds, names ending in _us).
  void record(u64 value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
  }

  /// Relaxed read of every counter. Torn against concurrent record()s by
  /// design (monitoring, not accounting): `count` is derived from the
  /// bucket array so it always equals the buckets' sum, while sum/min/max
  /// may trail by the handful of records in flight.
  HistogramSnapshot snapshot() const;

  /// Zero every counter. Not atomic against concurrent record()s — callers
  /// that need a consistent epoch boundary (Registry::reset) serialise
  /// recording threads themselves or accept the raciness.
  void reset();

 private:
  void update_min(u64 value) {
    u64 cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
  }
  void update_max(u64 value) {
    u64 cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<u64> buckets_[kHistogramBuckets] = {};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~u64{0}};
  std::atomic<u64> max_{0};
};

}  // namespace aeep::metrics
