// Full-system assembly: the Table-1 processor, the memory hierarchy, and a
// synthetic SPEC2000-like workload, with the paper's warm-up-then-measure
// protocol (fast-forward, zero statistics, simulate N committed micro-ops).
#pragma once

#include <memory>
#include <string>

#include "cpu/core.hpp"
#include "sim/hierarchy.hpp"
#include "workload/generator.hpp"

namespace aeep::sim {

struct SystemConfig {
  cpu::CoreConfig core{};
  HierarchyConfig hierarchy{};
  std::string benchmark = "gzip";
  u64 seed = 42;
  u64 warmup_instructions = 200'000;
  u64 instructions = 2'000'000;  ///< committed micro-ops measured
};

/// Everything the paper's figures need from one run.
struct RunResult {
  std::string benchmark;
  bool floating_point = false;
  cpu::CoreStats core{};

  // L2 protection metrics.
  double avg_dirty_fraction = 0.0;   ///< Figures 1 / 3 / 4 / 7
  u64 avg_dirty_lines = 0;
  u64 peak_dirty_lines = 0;
  u64 wb_replacement = 0;            ///< "WB"
  u64 wb_cleaning = 0;               ///< "Clean-WB"
  u64 wb_ecc = 0;                    ///< "ECC-WB"

  cache::CacheStats l1i{}, l1d{}, l2{};
  cache::WriteBufferStats wbuf{};
  mem::BusStats bus{};
  cpu::TlbStats itlb{}, dtlb{};

  // Online error-recovery metrics (all zero when strikes/checking are off).
  protect::RecoveryStats recovery{};
  fault::StrikeStats strikes{};
  u64 retired_ways = 0;                   ///< (set, way) slots fused off
  double retired_capacity_fraction = 0.0; ///< retired_ways / total lines
  bool panicked = false;                  ///< DUE panic latch (kPanic policy)

  u64 wb_total() const { return wb_replacement + wb_cleaning + wb_ecc; }
  /// Write-backs as a fraction of loads+stores (Figures 5 / 6 / 8).
  double wb_per_ls() const {
    const u64 ls = core.loads_stores();
    return ls ? static_cast<double>(wb_total()) / static_cast<double>(ls) : 0.0;
  }
  double ipc() const { return core.ipc(); }

  /// Field-wise equality; the sweep determinism test asserts results are
  /// identical regardless of worker count or scheduling order.
  bool operator==(const RunResult&) const = default;
};

/// Also the codec's key order (sim/result_json.hpp).
void visit_fields(SameOrConst<RunResult> auto& r, auto&& visit) {
  visit("benchmark", r.benchmark);
  visit("floating_point", r.floating_point);
  visit("core", r.core);
  visit("avg_dirty_fraction", r.avg_dirty_fraction);
  visit("avg_dirty_lines", r.avg_dirty_lines);
  visit("peak_dirty_lines", r.peak_dirty_lines);
  visit("wb_replacement", r.wb_replacement);
  visit("wb_cleaning", r.wb_cleaning);
  visit("wb_ecc", r.wb_ecc);
  visit("l1i", r.l1i);
  visit("l1d", r.l1d);
  visit("l2", r.l2);
  visit("wbuf", r.wbuf);
  visit("bus", r.bus);
  visit("itlb", r.itlb);
  visit("dtlb", r.dtlb);
  visit("recovery", r.recovery);
  visit("strikes", r.strikes);
  visit("retired_ways", r.retired_ways);
  visit("retired_capacity_fraction", r.retired_capacity_fraction);
  visit("panicked", r.panicked);
}

/// The RunResult read off a finished hierarchy, shared by both frontends:
/// L2 dirty residency and write-backs, recovery, strikes and retirement,
/// and the cache, write-buffer, bus and TLB stats. The benchmark and core
/// fields are left for the caller.
RunResult hierarchy_result(MemoryHierarchy& hier);

class System {
 public:
  explicit System(const SystemConfig& config);

  /// Warm up, reset statistics, run the measured phase, finalize metrics.
  RunResult run();

  cpu::OutOfOrderCore& core() { return *core_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  workload::SyntheticWorkload& workload() { return *workload_; }
  const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  std::unique_ptr<workload::SyntheticWorkload> workload_;
  MemoryHierarchy hierarchy_;
  std::unique_ptr<cpu::OutOfOrderCore> core_;
};

}  // namespace aeep::sim
