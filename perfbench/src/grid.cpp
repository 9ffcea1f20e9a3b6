// Pooled grid rounds and the per-cell output checks shared by the
// exec-figures and trace-protect workloads.
#include "common.hpp"

namespace perfbench {

void CellChecker::check(Report& rep, const aeep::sim::SweepJob& job,
                        const aeep::sim::SweepOutcome& out) {
  if (!out.ok()) {
    rep.op(false, job.tag + ": threw: " + out.error);
    return;
  }
  std::string why = check_invariants(out.result, job.options);
  if (why.empty()) {
    const std::string digest = result_digest(out.result);
    const auto [it, fresh] = seen_.emplace(job.tag, digest);
    if (!fresh && it->second != digest)
      why = "result differs from the first round";
    else if (fresh)
      why = table_.compare(workload_, job.tag, digest);
  }
  rep.op(why.empty(), job.tag + ": " + why);
}

double RoundStats::occupancy() const {
  return wall_s > 0 ? busy_s / (wall_s * kWorkers) : 0.0;
}

RoundStats run_rounds(const std::vector<aeep::sim::SweepJob>& grid,
                      double seconds, CellChecker& checker, Report& rep,
                      Spans* spans, HostReference& ref) {
  const aeep::sim::SweepRunner runner(kWorkers);
  RoundStats s;
  const auto start = aeep::metrics::now();
  do {
    const double c0 = process_cpu_s();
    const auto t0 = aeep::metrics::now();
    std::vector<aeep::sim::SweepOutcome> outs = runner.run(grid);
    const auto t1 = aeep::metrics::now();
    s.round_cpu_s.push_back(process_cpu_s() - c0);
    if (spans) spans->record("sim.SweepRunner.run", t0, t1);
    s.round_wall_s.push_back(aeep::metrics::seconds_between(t0, t1));
    s.wall_s += s.round_wall_s.back();
    ref.sample_for(HostReference::kShare * s.round_wall_s.back());
    std::vector<double>& cell_ms = s.cell_ms.emplace_back();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      checker.check(rep, grid[i], outs[i]);
      s.busy_s += outs[i].wall_seconds;
      cell_ms.push_back(outs[i].wall_seconds * 1000.0);
    }
    s.cells += grid.size();
    if (s.first.empty()) s.first = std::move(outs);
  } while (seconds_since(start) < seconds);
  JsonValue rounds = JsonValue::object();
  JsonValue wall = JsonValue::array(), cpu = JsonValue::array();
  for (const double w : s.round_wall_s) wall.push(JsonValue::number(w));
  for (const double c : s.round_cpu_s) cpu.push(JsonValue::number(c));
  rounds.set("wall_s", std::move(wall));
  rounds.set("cpu_s", std::move(cpu));
  rep.detail("rounds", std::move(rounds));
  return s;
}

bool more_setups(const std::vector<double>& setup_s) {
  return setup_s.size() < kSetups || sum(setup_s) < kSetupSeconds;
}

void report_end_to_end(Report& rep, double cells, double wall_s,
                       const std::vector<std::vector<double>>& job_ms,
                       const std::vector<double>& setup_s,
                       const HostReference& ref) {
  std::vector<double> p50, p90;
  u64 jobs = 0;
  for (const auto& phase : job_ms) {
    if (phase.empty()) continue;
    p50.push_back(percentile(phase, 50));
    p90.push_back(percentile(phase, 90));
    jobs += phase.size();
  }
  const double speed = ref.speed();
  rep.metric("cells_per_s", wall_s > 0 ? cells / (wall_s * speed) : 0.0,
             "1/s");
  rep.metric("job_p50_ms", median(p50) * speed, "ms");
  rep.metric("job_p90_ms", median(p90) * speed, "ms");
  rep.metric("setup_s", median(setup_s) * speed, "s");
  rep.metric("peak_rss_mb", peak_rss_mb() - ref.footprint_mb(), "MiB");
  JsonValue samples = JsonValue::object();
  samples.set("jobs", JsonValue::number(jobs));
  samples.set("phases", JsonValue::number(static_cast<u64>(p50.size())));
  samples.set("setups", JsonValue::number(static_cast<u64>(setup_s.size())));
  rep.detail("samples", std::move(samples));
  // The same figures as measured, before scaling to the nominal host.
  JsonValue host = JsonValue::object();
  host.set("speed", JsonValue::number(speed));
  host.set("slices", JsonValue::number(static_cast<u64>(ref.slices())));
  host.set("cells_per_s", JsonValue::number(wall_s > 0 ? cells / wall_s : 0.0));
  host.set("job_p50_ms", JsonValue::number(median(p50)));
  host.set("job_p90_ms", JsonValue::number(median(p90)));
  host.set("setup_s", JsonValue::number(median(setup_s)));
  rep.detail("as_measured", std::move(host));
}

}  // namespace perfbench
