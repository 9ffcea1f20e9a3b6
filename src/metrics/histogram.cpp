#include "metrics/histogram.hpp"

#include <algorithm>

namespace aeep::metrics {

double HistogramSnapshot::mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank in [1, count]: the k-th smallest recorded value estimates this
  // percentile. p=0 asks for the 1st (the min), p=100 for the count-th
  // (the max).
  const double target = std::max(
      1.0, p / 100.0 * static_cast<double>(count));
  // The extreme ranks are known exactly — never interpolate them.
  if (target <= 1.0) return static_cast<double>(min);
  if (target >= static_cast<double>(count)) return static_cast<double>(max);
  u64 cum = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const u64 in_bucket = buckets[i];
    if (static_cast<double>(cum + in_bucket) < target) {
      cum += in_bucket;
      continue;
    }
    // The target rank falls in this bucket: interpolate linearly across
    // its value range, then clamp to the exact extremes — a one-sample
    // histogram (min == max) therefore reports that exact sample.
    const double lo = static_cast<double>(bucket_lower_bound(i));
    const double hi =
        i >= kHistogramBuckets - 1
            ? static_cast<double>(
                  std::max(max, bucket_lower_bound(i)))  // saturating top
            : static_cast<double>(bucket_upper_bound(i)) + 1.0;
    const double frac =
        (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
    double v = lo + frac * (hi - lo);
    v = std::min(v, static_cast<double>(max));
    v = std::max(v, static_cast<double>(min));
    return v;
  }
  return static_cast<double>(max);
}

std::optional<HistogramSnapshot> HistogramSnapshot::diff_since(
    const HistogramSnapshot& older) const {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] < older.buckets[i]) return std::nullopt;
    out.buckets[i] = buckets[i] - older.buckets[i];
    out.count += out.buckets[i];
  }
  out.sum = sum >= older.sum ? sum - older.sum : 0;
  // Interval min/max cannot be recovered from totals; bound them by the
  // occupied buckets so percentile clamping stays sound. The top bucket's
  // upper envelope is the all-time max (the tightest bound available).
  if (out.count > 0) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (out.buckets[i] != 0) {
        out.min = bucket_lower_bound(i);
        break;
      }
    }
    for (std::size_t i = kHistogramBuckets; i-- > 0;) {
      if (out.buckets[i] != 0) {
        out.max =
            i >= kHistogramBuckets - 1 ? max : bucket_upper_bound(i);
        break;
      }
    }
  }
  return out;
}

JsonValue HistogramSnapshot::to_json() const {
  JsonValue j = JsonValue::object();
  j.set("count", JsonValue::number(count));
  j.set("sum", JsonValue::number(sum));
  j.set("min", JsonValue::number(min));
  j.set("max", JsonValue::number(max));
  j.set("mean", JsonValue::number(mean()));
  j.set("p50", JsonValue::number(percentile(50)));
  j.set("p90", JsonValue::number(percentile(90)));
  j.set("p99", JsonValue::number(percentile(99)));
  j.set("p999", JsonValue::number(percentile(99.9)));
  JsonValue sparse = JsonValue::array();
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    JsonValue pair = JsonValue::array();
    pair.push(JsonValue::number(u64{i}));
    pair.push(JsonValue::number(buckets[i]));
    sparse.push(std::move(pair));
  }
  j.set("buckets", std::move(sparse));
  return j;
}

std::optional<HistogramSnapshot> HistogramSnapshot::from_json(
    const JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* sparse = doc.find("buckets");
  if (sparse == nullptr || !sparse->is_array()) return std::nullopt;
  HistogramSnapshot out;
  for (const JsonValue& pair : sparse->elements()) {
    if (!pair.is_array() || pair.elements().size() != 2) return std::nullopt;
    const u64 idx = pair.elements()[0].as_u64(kHistogramBuckets);
    if (idx >= kHistogramBuckets) return std::nullopt;
    out.buckets[idx] = pair.elements()[1].as_u64(0);
    out.count += out.buckets[idx];
  }
  // The derived count must agree with the raw buckets; a mismatch means a
  // corrupted or hand-edited document.
  if (out.count != doc.get_u64("count", out.count)) return std::nullopt;
  out.sum = doc.get_u64("sum", 0);
  out.min = doc.get_u64("min", 0);
  out.max = doc.get_u64("max", 0);
  return out;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  const u64 mn = min_.load(std::memory_order_relaxed);
  s.min = s.count == 0 || mn == ~u64{0} ? 0 : mn;
  s.max = s.count == 0 ? 0 : max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~u64{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace aeep::metrics
