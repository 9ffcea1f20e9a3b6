// Process-wide registry of named histograms and counters.
//
// Naming convention: dotted lowercase paths with the unit as the final
// suffix — "server.queue_wait_us", "sim.sweep.cell_us", "store.hits". One
// Registry::instance() serves the whole process so the metrics wire
// endpoint, the access-log summaries and the tools all read the same
// truth.
//
// Locking: the name maps are guarded by one aeep::Mutex, taken only on
// first registration, snapshot and reset. histogram()/counter() return
// references with stable addresses (std::map nodes never move), so hot
// paths resolve their instruments once — at construction time or in a
// function-local static — and then record wait-free forever after. The
// registry mutex is a leaf: no registry method calls out while holding it,
// so it can be taken under any caller lock without ordering concerns.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/histogram.hpp"

namespace aeep::metrics {

/// Monotonic event counter. value() returns the plain integer (this is the
/// accessor the unchecked-optional-value lint rule exempts by name).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(u64 n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance every subsystem instruments into.
  static Registry& instance();

  /// The named histogram, created empty on first use. The reference stays
  /// valid (and its address stable) for the registry's lifetime — resolve
  /// once, record forever.
  Histogram& histogram(const std::string& name) AEEP_EXCLUDES(mutex_);

  /// The named counter, same contract as histogram().
  Counter& counter(const std::string& name) AEEP_EXCLUDES(mutex_);

  /// All histograms (name-sorted) snapshotted at one pass.
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms() const
      AEEP_EXCLUDES(mutex_);

  /// All counters (name-sorted) read at one pass.
  std::vector<std::pair<std::string, u64>> counters() const
      AEEP_EXCLUDES(mutex_);

  /// Whole-registry snapshot:
  ///   {"histograms": {name: <HistogramSnapshot JSON>},
  ///    "counters":   {name: <u64>}}
  /// The document the metrics wire endpoint and aeep_metrics dump emit.
  JsonValue snapshot_json() const AEEP_EXCLUDES(mutex_);

  /// Zero every instrument (names stay registered). Epoch boundaries are
  /// soft: records in flight on other threads may land on either side.
  void reset() AEEP_EXCLUDES(mutex_);

 private:
  mutable aeep::Mutex mutex_;
  /// node-based maps: references handed out survive later insertions.
  std::map<std::string, Histogram> histograms_ AEEP_GUARDED_BY(mutex_);
  std::map<std::string, Counter> counters_ AEEP_GUARDED_BY(mutex_);
};

}  // namespace aeep::metrics
