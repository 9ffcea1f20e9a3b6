#include "sim/experiment.hpp"

#include <sstream>
#include <stdexcept>

#include "trace/replay.hpp"
#include "workload/profile.hpp"

namespace aeep::sim {

const char* to_string(Frontend f) {
  switch (f) {
    case Frontend::kExec: return "exec";
    case Frontend::kTrace: return "trace";
  }
  return "?";
}

JsonValue options_to_json(const ExperimentOptions& opts) {
  return fields_to_json(opts);
}

ExperimentOptions options_from_json(
    const JsonValue& doc, std::initializer_list<std::string_view> envelope) {
  if (!doc.is_object())
    throw std::invalid_argument("options document must be an object");
  ExperimentOptions opts;
  fields_from_json(doc, opts, MissingField::kKeep, envelope);
  // A stuck-fault site becomes an index into the L2's arrays
  // (fault::locate_stored_bit): refuse one the Table-1 L2 does not have.
  const cache::CacheGeometry& l2 = cache::kL2Geometry;
  for (std::size_t i = 0; i < opts.stuck_faults.size(); ++i) {
    const fault::StuckFault& f = opts.stuck_faults[i];
    if (f.set >= l2.num_sets() || f.way >= l2.ways ||
        f.bit >= fault::line_bits(f.target, l2))
      bad_field("stuck_faults[" + std::to_string(i) + "]", "",
                "names a site outside the Table-1 L2");
  }
  return opts;
}

SystemConfig make_system_config(const std::string& benchmark,
                                const ExperimentOptions& opts) {
  SystemConfig cfg;
  cfg.benchmark = benchmark;
  cfg.seed = opts.seed;
  cfg.instructions = opts.instructions;
  cfg.warmup_instructions = opts.warmup_instructions;
  cfg.hierarchy.capture_path = opts.capture_path;

  cfg.hierarchy.l2.scheme = opts.scheme;
  cfg.hierarchy.l2.cleaning_interval = opts.cleaning_interval;
  cfg.hierarchy.l2.cleaning_policy = opts.cleaning_policy;
  cfg.hierarchy.l2.decay_threshold = opts.decay_threshold;
  cfg.hierarchy.l2.ecc_entries_per_set = opts.ecc_entries_per_set;
  cfg.hierarchy.l2.maintain_codes = opts.maintain_codes;

  cfg.hierarchy.l2.recovery.due_policy = opts.due_policy;
  cfg.hierarchy.l2.recovery.retirement_threshold = opts.retirement_threshold;
  cfg.hierarchy.l2.recovery.max_refetch_retries = opts.max_refetch_retries;
  if (opts.strikes_enabled) {
    // Live strikes are pointless without real codes and online validation.
    cfg.hierarchy.l2.maintain_codes = true;
    cfg.hierarchy.l2.recovery.check_on_access = true;
    cfg.hierarchy.strikes.enabled = true;
    cfg.hierarchy.strikes.lambda_per_bit_cycle = opts.strike_lambda;
    cfg.hierarchy.strikes.rate_scale = opts.strike_rate_scale;
    cfg.hierarchy.strikes.double_bit_fraction =
        opts.strike_double_bit_fraction;
    cfg.hierarchy.strikes.stuck_faults = opts.stuck_faults;
    cfg.hierarchy.strikes.seed = opts.seed + 0x5EED;
  }
  return cfg;
}

std::string trace_path_for(const std::string& benchmark,
                           const ExperimentOptions& opts) {
  if (!opts.trace_path.empty()) return opts.trace_path;
  if (!opts.trace_dir.empty()) return opts.trace_dir + "/" + benchmark + ".aeept";
  throw std::runtime_error(
      "frontend=trace needs trace_dir or trace_path (benchmark " + benchmark +
      ")");
}

RunResult run_benchmark(const std::string& benchmark,
                        const ExperimentOptions& opts) {
  if (opts.frontend == Frontend::kTrace) {
    if (opts.strikes_enabled)
      throw std::runtime_error(
          "frontend=trace cannot run online strike campaigns (cycle-exact "
          "strike replay needs the execution-driven frontend)");
    SystemConfig cfg = make_system_config(benchmark, opts);
    trace::ReplayConfig rc;
    rc.hierarchy = cfg.hierarchy;
    rc.trace_path = trace_path_for(benchmark, opts);
    RunResult r = trace::ReplayDriver(std::move(rc)).run();
    r.benchmark = benchmark;
    r.floating_point = workload::profile_by_name(benchmark).floating_point;
    return r;
  }
  System system(make_system_config(benchmark, opts));
  return system.run();
}

namespace {
std::vector<std::string> names_of(const std::vector<workload::BenchmarkProfile>& ps) {
  std::vector<std::string> out;
  out.reserve(ps.size());
  for (const auto& p : ps) out.push_back(p.name);
  return out;
}
}  // namespace

std::vector<std::string> all_benchmarks() {
  return names_of(workload::spec2000_profiles());
}
std::vector<std::string> fp_benchmarks() {
  return names_of(workload::fp_profiles());
}
std::vector<std::string> int_benchmarks() {
  return names_of(workload::int_profiles());
}
std::vector<std::string> smoke_benchmarks() {
  return {"gzip", "mcf", "swim", "art"};
}

std::string table1_text() {
  std::ostringstream os;
  os << "Baseline processor configuration (paper Table 1)\n"
     << "  Issue window        64-entry RUU, 32-entry LSQ\n"
     << "  Decode/issue rate   4 instructions per cycle\n"
     << "  Functional units    4 INT add, 1 INT mult/div, 1 FP add, 1 FP mult/div\n"
     << "  L1 instruction      32KB 4-way, 32B line, 1-cycle\n"
     << "  L1 data             32KB 4-way, 32B line, 1-cycle (write-through, 16-entry write buffer)\n"
     << "  L2 unified          1MB 4-way, 64B line, 10-cycle (write-back)\n"
     << "  Main memory         8B-wide split-transaction bus, 100-cycle\n"
     << "  Branch prediction   2-level, 2K BTB\n"
     << "  ITLB / DTLB         64-entry 4-way / 128-entry 4-way\n";
  return os.str();
}

}  // namespace aeep::sim
