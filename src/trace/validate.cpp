#include "trace/validate.hpp"

#include <algorithm>
#include <sstream>

#include "metrics/clock.hpp"
#include "trace/io.hpp"
#include "trace/replay.hpp"

namespace aeep::trace {

std::vector<MetricDiff> diff_metrics(const sim::RunResult& exec,
                                     const sim::RunResult& replay) {
  const auto n = [](u64 v) { return static_cast<double>(v); };
  return {
      {"avg_dirty_fraction", exec.avg_dirty_fraction,
       replay.avg_dirty_fraction},
      {"wb_replacement", n(exec.wb_replacement), n(replay.wb_replacement)},
      {"wb_cleaning", n(exec.wb_cleaning), n(replay.wb_cleaning)},
      {"wb_ecc", n(exec.wb_ecc), n(replay.wb_ecc)},
      {"wb_total", n(exec.wb_total()), n(replay.wb_total())},
      {"l2_accesses", n(exec.l2.accesses()), n(replay.l2.accesses())},
      {"l2_misses", n(exec.l2.misses()), n(replay.l2.misses())},
  };
}

std::string ValidationReport::to_text() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: exec %.2fs, replay %.2fs (%.1fx), %llu events, %llu bytes\n",
                benchmark.c_str(), exec_seconds, replay_seconds, speedup(),
                static_cast<unsigned long long>(trace_events),
                static_cast<unsigned long long>(trace_bytes));
  os << buf;
  for (const auto& m : metrics) {
    std::snprintf(buf, sizeof(buf), "  %-20s exec %-14.6g replay %-14.6g %s\n",
                  m.name.c_str(), m.exec, m.replay,
                  m.exec == m.replay ? "ok" : "DIFFERS");
    os << buf;
  }
  os << "  => " << (pass ? "PASS" : "FAIL") << " (exec == replay required)\n";
  return os.str();
}

ValidationReport cross_validate(const sim::SystemConfig& cfg,
                                const std::string& trace_path) {
  ValidationReport rep;
  rep.benchmark = cfg.benchmark;
  rep.trace_path = trace_path;

  sim::SystemConfig exec_cfg = cfg;
  exec_cfg.hierarchy.capture_path = trace_path;
  const auto t0 = metrics::now();
  sim::System system(exec_cfg);
  const sim::RunResult exec_result = system.run();
  const auto t1 = metrics::now();

  ReplayConfig rc;
  rc.hierarchy = cfg.hierarchy;
  rc.trace_path = trace_path;
  ReplayDriver driver(std::move(rc));
  const auto t2 = metrics::now();
  const sim::RunResult replay_result = driver.run();
  const auto t3 = metrics::now();

  rep.exec_seconds = metrics::seconds_between(t0, t1);
  rep.replay_seconds = metrics::seconds_between(t2, t3);
  rep.trace_events = driver.events_replayed();
  try {
    FileReader trace_file(trace_path);
    rep.trace_bytes = trace_file.size();
  } catch (const TraceError&) {
    // Size is informational; a vanished trace file does not fail validation
    // (the replay above already read it).
  }
  rep.metrics = diff_metrics(exec_result, replay_result);
  rep.pass = std::all_of(rep.metrics.begin(), rep.metrics.end(),
                         [](const MetricDiff& m) { return m.exec == m.replay; });
  return rep;
}

}  // namespace aeep::trace
