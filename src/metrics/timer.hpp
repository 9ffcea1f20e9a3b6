// Instrumentation spans: measure one stage's wall clock and record it into
// a Histogram in microseconds.
//
//   metrics::ScopedTimer t(h_store_lookup_);   // starts now
//   ... stage ...
//   // records on scope exit; or t.stop() to record early and read the us
//
// The span holds only a Histogram* and a TimePoint — cheap enough for the
// per-request and per-job paths it instruments. cancel() disarms a span
// whose stage aborted (an exception path that should not pollute the
// latency distribution still destroys the timer; wrap-and-cancel decides).
#pragma once

#include "metrics/clock.hpp"
#include "metrics/histogram.hpp"

namespace aeep::metrics {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& into) : into_(&into), start_(now()) {}
  ~ScopedTimer() {
    if (into_ != nullptr) into_->record(us_since(start_));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; returns the recorded value.
  u64 stop() {
    const u64 us = us_since(start_);
    if (into_ != nullptr) into_->record(us);
    into_ = nullptr;
    return us;
  }

  /// Disarm: destroy without recording.
  void cancel() { into_ = nullptr; }

 private:
  Histogram* into_;
  TimePoint start_;
};

}  // namespace aeep::metrics
