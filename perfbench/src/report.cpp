#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace perfbench {

void Report::op(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  if (failures_.size() < 50) failures_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  JsonValue m = JsonValue::object();
  m.set("value", JsonValue::number(value));
  m.set("unit", JsonValue::string(unit));
  metrics_.set(name, std::move(m));
}

void Report::detail(const std::string& key, JsonValue value) {
  details_.set(key, std::move(value));
}

double Report::fail_ratio() const {
  return attempted_ ? static_cast<double>(failed_) /
                          static_cast<double>(attempted_)
                    : 0.0;
}

JsonValue Report::final_line() const {
  JsonValue out = JsonValue::object();
  out.set("correct", JsonValue::boolean(failed_ == 0 && attempted_ > 0));
  out.set("attempted", JsonValue::number(attempted_));
  out.set("failed", JsonValue::number(failed_));
  out.set("metrics", metrics_);
  return out;
}

JsonValue Report::full(const JsonValue& meta) const {
  JsonValue out = final_line();
  out.set("fail_ratio", JsonValue::number(fail_ratio()));
  JsonValue fails = JsonValue::array();
  for (const auto& f : failures_) fails.push(JsonValue::string(f));
  out.set("failures", std::move(fails));
  out.set("meta", meta);
  out.set("details", details_);
  return out;
}

Spans::Id Spans::reserve() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

Spans::Id Spans::record(const std::string& name,
                        aeep::metrics::TimePoint start,
                        aeep::metrics::TimePoint end, Id parent) {
  const Id id = reserve();
  record_as(id, name, start, end, parent);
  return id;
}

void Spans::record_as(Id id, const std::string& name,
                      aeep::metrics::TimePoint start,
                      aeep::metrics::TimePoint end, Id parent) {
  const double s = aeep::metrics::ms_between(origin_, start) * 1000.0;
  const double e = aeep::metrics::ms_between(origin_, end) * 1000.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, name, s, e});
}

void Spans::write(const std::string& path) const {
  JsonValue arr = JsonValue::array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::object();
      j.set("id", JsonValue::number(s.id));
      j.set("parent", JsonValue::number(s.parent));
      j.set("name", JsonValue::string(s.name));
      j.set("start_us", JsonValue::number(s.start_us));
      j.set("end_us", JsonValue::number(s.end_us));
      arr.push(std::move(j));
    }
  }
  std::ofstream(path) << arr.dump(0) << "\n";
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double sum(const std::vector<double>& samples) {
  double total = 0;
  for (const double s : samples) total += s;
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double seconds_since(aeep::metrics::TimePoint t0) {
  return aeep::metrics::seconds_between(t0, aeep::metrics::now());
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SimCounts::add(const aeep::sim::RunResult& r) {
  ++cells;
  sim_cycles += static_cast<double>(r.core.cycles);
  committed += static_cast<double>(r.core.committed);
  commit_stall_wb_full += static_cast<double>(r.core.commit_stall_wb_full);
  fetch_stall_cycles += static_cast<double>(r.core.fetch_stall_cycles);
  l1i_acc += static_cast<double>(r.l1i.accesses());
  l1i_miss += static_cast<double>(r.l1i.misses());
  l1d_acc += static_cast<double>(r.l1d.accesses());
  l1d_miss += static_cast<double>(r.l1d.misses());
  wbuf_stores += static_cast<double>(r.wbuf.stores);
  wbuf_coalesced += static_cast<double>(r.wbuf.coalesced);
  wbuf_full += static_cast<double>(r.wbuf.full_events);
  l2_acc += static_cast<double>(r.l2.accesses());
  l2_miss += static_cast<double>(r.l2.misses());
  wb_repl += static_cast<double>(r.wb_replacement);
  wb_clean += static_cast<double>(r.wb_cleaning);
  wb_ecc += static_cast<double>(r.wb_ecc);
  bus_busy += static_cast<double>(r.bus.busy_cycles);
  bus_queue += static_cast<double>(r.bus.queue_delay_cycles);
}

void SimCounts::report(Report& rep) const {
  const double n = cells ? static_cast<double>(cells) : 1.0;
  rep.metric("cpu.sim_cycles", sim_cycles / n, "cycles");
  rep.metric("cpu.committed", committed / n, "uops");
  rep.metric("cpu.commit_stall_wb_full", commit_stall_wb_full / n, "slots");
  rep.metric("cpu.fetch_stall_cycles", fetch_stall_cycles / n, "cycles");
  rep.metric("l1i.miss_ratio", ratio(l1i_miss, l1i_acc), "ratio");
  rep.metric("l1d.miss_ratio", ratio(l1d_miss, l1d_acc), "ratio");
  rep.metric("wbuf.coalesce_ratio", ratio(wbuf_coalesced, wbuf_stores),
             "ratio");
  rep.metric("wbuf.full_events", wbuf_full / n, "count");
  rep.metric("l2.accesses", l2_acc / n, "count");
  rep.metric("l2.miss_ratio", ratio(l2_miss, l2_acc), "ratio");
  rep.metric("l2.wb_replacement", wb_repl / n, "count");
  rep.metric("l2.wb_cleaning", wb_clean / n, "count");
  rep.metric("l2.wb_ecc", wb_ecc / n, "count");
  rep.metric("l2.clean_yield", ratio(wb_clean, inspections), "ratio");
  rep.metric("l2.silent_elision_ratio", ratio(silent_elided, wbuf_stores),
             "ratio");
  rep.metric("bus.busy_cycles", bus_busy / n, "cycles");
  rep.metric("bus.queue_delay_cycles", bus_queue / n, "cycles");
}

void LayerTotals::report(Report& rep, bool exec) const {
  static const char* const kHier[4] = {"fetch", "load", "store", "tick"};
  double hier_total = 0;
  for (int i = 0; i < 4; ++i) {
    hier_total += hier_s[i];
    rep.metric(std::string("hier.") + kHier[i] + "_s", hier_s[i], "s");
    rep.metric(std::string("hier.") + kHier[i] + "_calls",
               static_cast<double>(hier_calls[i]), "count");
  }
  rep.metric("hier.store_retries", static_cast<double>(store_retries),
             "count");
  // The simulation loop's own time: the core on exec cells, the trace reader
  // and replay loop on trace cells. It is not sampled but what is left of
  // the timed loop, so it carries the sampled layers' error.
  const double self = std::max(0.0, loop_s - workload_s - hier_total);
  rep.metric("tracing.sampled_se_s", std::sqrt(sampled_var_s2), "s");
  const double cpu_self = exec ? self : 0.0;
  rep.metric("cpu.self_s", cpu_self, "s");
  rep.metric("cpu.ns_per_sim_cycle",
             exec ? ratio(cpu_self * 1e9, static_cast<double>(sim_cycles)) : 0,
             "ns");
  rep.metric("workload.self_s", workload_s, "s");
  rep.metric("workload.next_calls", static_cast<double>(workload_calls),
             "count");
  rep.metric("cpu.share", ratio(cpu_self, cell_wall_s), "ratio");
  rep.metric("workload.share", ratio(workload_s, cell_wall_s), "ratio");
  rep.metric("hier.share", ratio(hier_total, cell_wall_s), "ratio");
  rep.metric("trace.share", exec ? 0.0 : ratio(self, cell_wall_s), "ratio");
  rep.metric("tracing.overhead_ratio",
             untraced_wall_s > 0 ? cell_wall_s / untraced_wall_s - 1.0 : 0.0,
             "ratio");
}

}  // namespace perfbench
