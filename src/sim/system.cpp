#include "sim/system.hpp"

#include "workload/profile.hpp"

namespace aeep::sim {

System::System(const SystemConfig& config)
    : config_(config),
      workload_(std::make_unique<workload::SyntheticWorkload>(
          workload::profile_by_name(config.benchmark), config.seed)),
      hierarchy_(config.hierarchy),
      core_(std::make_unique<cpu::OutOfOrderCore>(config.core, *workload_,
                                                  hierarchy_)) {}

RunResult hierarchy_result(MemoryHierarchy& hier) {
  RunResult r;
  const auto& l2 = hier.l2();
  r.avg_dirty_fraction = l2.avg_dirty_fraction();
  r.avg_dirty_lines = static_cast<u64>(l2.avg_dirty_lines() + 0.5);
  r.peak_dirty_lines = l2.peak_dirty_lines();
  r.wb_replacement = l2.wb_count(protect::WbCause::kReplacement);
  r.wb_cleaning = l2.wb_count(protect::WbCause::kCleaning);
  r.wb_ecc = l2.wb_count(protect::WbCause::kEccEviction);

  r.recovery = l2.recovery().stats();
  r.retired_ways = l2.cache_model().retired_ways();
  r.retired_capacity_fraction = l2.retired_capacity_fraction();
  r.panicked = l2.recovery().panicked();
  if (const auto* sp = hier.strikes()) r.strikes = sp->stats();

  r.l1i = hier.l1i().stats();
  r.l1d = hier.l1d().stats();
  r.l2 = l2.cache_model().stats();
  r.wbuf = hier.write_buffer().stats();
  r.bus = hier.bus().stats();
  r.itlb = hier.itlb().stats();
  r.dtlb = hier.dtlb().stats();
  return r;
}

RunResult System::run() {
  // Fast-forward analogue: run with full machine state but discard stats.
  if (config_.warmup_instructions > 0) {
    core_->run(config_.warmup_instructions);
    core_->reset_stats();
    hierarchy_.reset_stats(core_->now());
  }

  const u64 target = core_->stats().committed + config_.instructions;
  const cpu::CoreStats cs = core_->run(target);
  hierarchy_.l2().finalize(core_->now());

  RunResult r = hierarchy_result(hierarchy_);
  if (auto* cap = hierarchy_.capture())
    cap->finish(core_->now(), cs.committed, cs.loads, cs.stores,
                {r.l1i, r.l1d, r.itlb, r.dtlb, r.wbuf});
  r.benchmark = config_.benchmark;
  r.floating_point = workload_->profile().floating_point;
  r.core = cs;
  return r;
}

}  // namespace aeep::sim
