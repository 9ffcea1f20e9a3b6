// Instrumentation spans: measure one stage's wall clock and record it into
// a Histogram in microseconds.
//
//   const metrics::ScopedTimer span(h_encode_);   // starts now
//   ... stage ...
//   // records on scope exit
//
// The span holds only a Histogram& and a TimePoint — cheap enough for the
// per-request and per-job paths it instruments.
#pragma once

#include "metrics/clock.hpp"
#include "metrics/histogram.hpp"

namespace aeep::metrics {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& into) : into_(into), start_(now()) {}
  ~ScopedTimer() { into_.record(us_since(start_)); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& into_;
  TimePoint start_;
};

}  // namespace aeep::metrics
