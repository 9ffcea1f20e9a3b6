#include "probe.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "cpu/core.hpp"
#include "sim/hierarchy.hpp"
#include "trace/reader.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace perfbench {

namespace am = aeep::metrics;
using aeep::Addr;
using aeep::Cycle;

namespace {

/// Median cost of one clock read pair, subtracted from every sample.
double clock_pair_overhead_s() {
  static const double overhead = [] {
    std::vector<double> pairs(2001);
    for (double& p : pairs) {
      const auto t0 = am::now();
      const auto t1 = am::now();
      p = am::seconds_between(t0, t1);
    }
    return median(pairs);
  }();
  return overhead;
}

/// Spans kept per layer per cell for sampled calls: enough to see call-time
/// distributions in the span file without growing it with the cell.
constexpr u64 kSpansPerLayer = 64;

struct Tally {
  const char* name;
  u64 calls = 0;
  u64 sampled = 0;
  double sampled_s = 0;
  double sampled_sq = 0;  ///< sum of squared sample times

  double estimate_s() const {
    return sampled ? sampled_s * static_cast<double>(calls) /
                         static_cast<double>(sampled)
                   : 0.0;
  }
  /// Sampling variance of estimate_s(): calls^2 x sample variance / samples,
  /// with the finite-population correction.
  double variance_s2() const {
    if (sampled < 2) return 0.0;
    const double n = static_cast<double>(sampled);
    const double N = static_cast<double>(calls);
    const double mean = sampled_s / n;
    const double var = std::max(0.0, (sampled_sq - n * mean * mean) / (n - 1));
    return N * N * var / n * std::max(0.0, 1.0 - n / N);
  }
};

/// Times a random ~1/64 of calls: the gap to the next sample is uniform in
/// [1, 128], so periodic call patterns cannot alias with the stride.
class Probe {
 public:
  Probe(u64 seed, Spans& spans, Spans::Id parent)
      : rng_(seed), spans_(spans), parent_(parent),
        overhead_s_(clock_pair_overhead_s()) {}

  template <typename F>
  auto time(Tally& t, F&& f) {
    ++t.calls;
    if (--until_sample_ != 0) return f();
    until_sample_ = (rng_.next() & 127) + 1;
    const auto t0 = am::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      sampled(t, t0, am::now());
    } else {
      auto r = f();
      sampled(t, t0, am::now());
      return r;
    }
  }

 private:
  void sampled(Tally& t, am::TimePoint t0, am::TimePoint t1) {
    const double s = std::max(0.0, am::seconds_between(t0, t1) - overhead_s_);
    t.sampled_s += s;
    t.sampled_sq += s * s;
    if (t.sampled++ < kSpansPerLayer) spans_.record(t.name, t0, t1, parent_);
  }

  aeep::Xorshift64Star rng_;
  u64 until_sample_ = 1;
  Spans& spans_;
  Spans::Id parent_;
  double overhead_s_;
};

class TimedSource final : public aeep::cpu::UopSource {
 public:
  TimedSource(aeep::cpu::UopSource& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  aeep::cpu::MicroOp next() override {
    return probe_.time(next_, [&] { return inner_.next(); });
  }
  const char* name() const override { return inner_.name(); }

  Tally next_{"workload.next"};

 private:
  aeep::cpu::UopSource& inner_;
  Probe& probe_;
};

class TimedMemory final : public aeep::cpu::MemoryInterface {
 public:
  TimedMemory(aeep::cpu::MemoryInterface& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  Cycle fetch(Cycle now, Addr pc) override {
    return probe_.time(tally[0], [&] { return inner_.fetch(now, pc); });
  }
  Cycle load(Cycle now, Addr addr) override {
    return probe_.time(tally[1], [&] { return inner_.load(now, addr); });
  }
  bool store(Cycle now, Addr addr, u64 value) override {
    const bool ok =
        probe_.time(tally[2], [&] { return inner_.store(now, addr, value); });
    if (!ok) ++store_retries;
    return ok;
  }
  void tick(Cycle now) override {
    probe_.time(tally[3], [&] { inner_.tick(now); });
  }

  Tally tally[4] = {{"hier.fetch"}, {"hier.load"}, {"hier.store"},
                    {"hier.tick"}};
  u64 store_retries = 0;

 private:
  aeep::cpu::MemoryInterface& inner_;
  Probe& probe_;
};

/// The hierarchy-side fields of a RunResult, as System::run fills them,
/// plus the L2 counters a RunResult does not carry.
TracedCell collect(aeep::sim::MemoryHierarchy& hier) {
  TracedCell out;
  aeep::sim::RunResult& r = out.result;
  const auto& l2 = hier.l2();
  r.avg_dirty_fraction = l2.avg_dirty_fraction();
  r.avg_dirty_lines = static_cast<u64>(l2.avg_dirty_lines() + 0.5);
  r.peak_dirty_lines = l2.peak_dirty_lines();
  r.wb_replacement = l2.wb_count(aeep::protect::WbCause::kReplacement);
  r.wb_cleaning = l2.wb_count(aeep::protect::WbCause::kCleaning);
  r.wb_ecc = l2.wb_count(aeep::protect::WbCause::kEccEviction);
  r.l1i = hier.l1i().stats();
  r.l1d = hier.l1d().stats();
  r.l2 = l2.cache_model().stats();
  r.wbuf = hier.write_buffer().stats();
  r.bus = hier.bus().stats();
  r.itlb = hier.itlb().stats();
  r.dtlb = hier.dtlb().stats();
  out.inspections = l2.cleaning_inspections();
  out.silent_elided = l2.silent_words_elided();
  return out;
}

void add_tallies(LayerTotals& totals, const TimedMemory& mem) {
  for (int i = 0; i < 4; ++i) {
    totals.hier_s[i] += mem.tally[i].estimate_s();
    totals.hier_calls[i] += mem.tally[i].calls;
    totals.sampled_var_s2 += mem.tally[i].variance_s2();
  }
  totals.store_retries += mem.store_retries;
}

}  // namespace

TracedCell run_traced_exec(const aeep::sim::SweepJob& job, u64 sample_seed,
                           LayerTotals& totals, Spans& spans,
                           Spans::Id parent) {
  const auto t0 = am::now();
  const Spans::Id cell = spans.reserve();
  Probe probe(sample_seed, spans, cell);
  const aeep::sim::SystemConfig cfg =
      aeep::sim::make_system_config(job.benchmark, job.options);
  aeep::workload::SyntheticWorkload workload(
      aeep::workload::profile_by_name(cfg.benchmark), cfg.seed);
  aeep::sim::MemoryHierarchy hier(cfg.hierarchy);
  TimedSource source(workload, probe);
  TimedMemory memory(hier, probe);
  aeep::cpu::OutOfOrderCore core(cfg.core, source, memory);

  const auto d0 = am::now();
  if (cfg.warmup_instructions > 0) {
    core.run(cfg.warmup_instructions);
    core.reset_stats();
    hier.reset_stats(core.now());
  }
  const aeep::cpu::CoreStats cs =
      core.run(core.stats().committed + cfg.instructions);
  const auto d1 = am::now();
  hier.l2().finalize(core.now());

  TracedCell out = collect(hier);
  out.result.core = cs;
  const auto t1 = am::now();
  spans.record(std::string("cpu.run ") + job.tag, d0, d1, cell);
  spans.record_as(cell, "cell " + job.tag, t0, t1, parent);

  totals.cell_wall_s += am::seconds_between(t0, t1);
  totals.loop_s += am::seconds_between(d0, d1);
  totals.workload_s += source.next_.estimate_s();
  totals.workload_calls += source.next_.calls;
  totals.sampled_var_s2 += source.next_.variance_s2();
  totals.sim_cycles += core.now();
  add_tallies(totals, memory);
  return out;
}

TracedCell run_traced_replay(const aeep::sim::SweepJob& job, u64 sample_seed,
                             LayerTotals& totals, Spans& spans,
                             Spans::Id parent) {
  using aeep::trace::EventKind;
  const auto t0 = am::now();
  const Spans::Id cell = spans.reserve();
  Probe probe(sample_seed, spans, cell);
  aeep::sim::SystemConfig cfg =
      aeep::sim::make_system_config(job.benchmark, job.options);
  cfg.hierarchy.capture_path.clear();
  aeep::sim::MemoryHierarchy hier(cfg.hierarchy);
  TimedMemory memory(hier, probe);
  aeep::trace::TraceReader reader(
      aeep::sim::trace_path_for(job.benchmark, job.options));

  // trace::ReplayDriver::run's loop, with the hierarchy behind the probe.
  const auto d0 = am::now();
  Cycle ticked = 0;
  Cycle reset_tick = 0;
  aeep::trace::TraceEvent e;
  while (reader.next(e)) {
    if (e.kind == EventKind::kStatsReset) {
      while (ticked < e.tick) memory.tick(ticked++);
      hier.reset_stats(e.tick);
      reset_tick = e.tick;
      continue;
    }
    while (ticked <= e.tick) memory.tick(ticked++);
    switch (e.kind) {
      case EventKind::kFetch: (void)memory.fetch(e.tick, e.addr); break;
      case EventKind::kLoad: (void)memory.load(e.tick, e.addr); break;
      case EventKind::kStore:
        if (!memory.store(e.tick, e.addr, e.value)) {
          hier.flush_write_buffer(e.tick);
          (void)memory.store(e.tick, e.addr, e.value);
        }
        break;
      case EventKind::kStatsReset: break;
    }
  }
  const auto& s = reader.summary();
  while (ticked < s.end_tick) memory.tick(ticked++);
  const auto d1 = am::now();
  hier.l2().finalize(s.end_tick);

  TracedCell out = collect(hier);
  out.result.core.committed = s.committed;
  out.result.core.loads = s.loads;
  out.result.core.stores = s.stores;
  out.result.core.cycles = s.end_tick - reset_tick;
  const auto t1 = am::now();
  spans.record(std::string("trace.replay ") + job.tag, d0, d1, cell);
  spans.record_as(cell, "cell " + job.tag, t0, t1, parent);

  totals.cell_wall_s += am::seconds_between(t0, t1);
  totals.loop_s += am::seconds_between(d0, d1);
  totals.sim_cycles += s.end_tick;
  add_tallies(totals, memory);
  return out;
}

std::string compare_results(const aeep::sim::RunResult& t,
                            const aeep::sim::RunResult& u, Same same) {
  if (same == Same::kAll ? !(t.core == u.core)
           : (t.core.committed != u.core.committed ||
              t.core.cycles != u.core.cycles))
    return "core stats";
  if (t.avg_dirty_fraction != u.avg_dirty_fraction ||
      t.avg_dirty_lines != u.avg_dirty_lines ||
      t.peak_dirty_lines != u.peak_dirty_lines)
    return "dirty residency";
  if (t.wb_replacement != u.wb_replacement || t.wb_cleaning != u.wb_cleaning ||
      t.wb_ecc != u.wb_ecc)
    return "write-back counts";
  if (!(t.l1i == u.l1i) || !(t.l1d == u.l1d) || !(t.l2 == u.l2))
    return "cache stats";
  aeep::cache::WriteBufferStats tw = t.wbuf;
  if (same == Same::kCapture) tw.full_events = u.wbuf.full_events;
  if (!(tw == u.wbuf)) return "write-buffer stats";
  if (!(t.bus == u.bus)) return "bus stats";
  if (!(t.itlb == u.itlb) || !(t.dtlb == u.dtlb)) return "TLB stats";
  return "";
}

}  // namespace perfbench
