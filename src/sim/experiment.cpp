#include "sim/experiment.hpp"

#include <algorithm>
#include <concepts>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

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

namespace {

template <typename T, typename U>
concept SameOrConst = std::same_as<std::remove_const_t<T>, U>;

// The one field list of the options document: visit(key, field) once per
// semantic field. Encoder and decoder both walk it, so they cannot
// disagree on a key.
void visit_fields(SameOrConst<ExperimentOptions> auto& o, auto&& visit) {
  visit("scheme", o.scheme);
  visit("cleaning_interval", o.cleaning_interval);
  visit("cleaning_policy", o.cleaning_policy);
  visit("decay_threshold", o.decay_threshold);
  visit("ecc_entries_per_set", o.ecc_entries_per_set);
  visit("instructions", o.instructions);
  visit("warmup_instructions", o.warmup_instructions);
  visit("seed", o.seed);
  visit("maintain_codes", o.maintain_codes);
  visit("frontend", o.frontend);
  visit("strikes_enabled", o.strikes_enabled);
  visit("strike_lambda", o.strike_lambda);
  visit("strike_rate_scale", o.strike_rate_scale);
  visit("strike_double_bit_fraction", o.strike_double_bit_fraction);
  visit("stuck_faults", o.stuck_faults);
  visit("due_policy", o.due_policy);
  visit("retirement_threshold", o.retirement_threshold);
  visit("max_refetch_retries", o.max_refetch_retries);
}

void visit_fields(SameOrConst<fault::StuckFault> auto& f, auto&& visit) {
  visit("target", f.target);
  visit("set", f.set);
  visit("way", f.way);
  visit("bit", f.bit);
  visit("stuck_high", f.stuck_high);
  visit("start", f.start);
  visit("period", f.period);
}

JsonValue fields_to_json(const auto& s);
void fields_from_json(const JsonValue& doc, const std::string& at, auto& s,
                      std::initializer_list<std::string_view> skip = {});

/// Error paths are `at` + `key` ("stuck_faults[1]." + "way"), joined only
/// when an error is thrown: the decoder runs on every wire job.
[[noreturn]] void bad_option(std::string_view at, std::string_view key,
                             const char* why) {
  throw std::invalid_argument("option '" + std::string(at) +
                              std::string(key) + "' " + why);
}

/// One field's value: bools, unsigned integers, doubles, enums by their
/// to_string spelling, and vectors of visited structs as arrays.
template <typename T>
JsonValue to_json(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    return JsonValue::string(to_string(v));
  } else if constexpr (std::is_integral_v<T>) {
    return JsonValue::number(u64{v});
  } else if constexpr (std::is_floating_point_v<T>) {
    return JsonValue::number(v);
  } else {
    JsonValue a = JsonValue::array();
    for (const auto& e : v) a.push(fields_to_json(e));
    return a;
  }
}

/// Strict inverse of to_json: a value of another kind, or one its field
/// cannot hold, is refused rather than defaulted.
template <typename T>
void from_json(const JsonValue& v, std::string_view at, std::string_view key,
               T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) bad_option(at, key, "must be true or false");
    out = v.as_bool();
  } else if constexpr (std::is_enum_v<T>) {
    if (!v.is_string()) bad_option(at, key, "must be a string");
    out = enum_from_string<T>(v.as_string(), std::string(at).append(key));
  } else if constexpr (std::is_integral_v<T>) {
    const u64 n = v.as_u64(0);  // as_u64(0) != as_u64(1): not a u64
    if (n != v.as_u64(1) || n > std::numeric_limits<T>::max())
      bad_option(at, key, "must be an unsigned integer that fits its field");
    out = static_cast<T>(n);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number()) bad_option(at, key, "must be a number");
    out = v.as_double();
  } else {
    if (!v.is_array()) bad_option(at, key, "must be an array");
    out.clear();
    for (const JsonValue& e : v.elements()) {
      const std::string elem = std::string(at) + std::string(key) + "[" +
                               std::to_string(out.size()) + "]";
      if (!e.is_object()) bad_option(elem, "", "must be an object");
      fields_from_json(e, elem + ".", out.emplace_back());
    }
  }
}

JsonValue fields_to_json(const auto& s) {
  JsonValue j = JsonValue::object();
  visit_fields(s, [&](const char* key, const auto& field) {
    j.set(key, to_json(field));
  });
  return j;
}

/// Decode `doc`'s members, but those named in `skip`, into `s`'s fields;
/// `at` prefixes the keys in error messages.
void fields_from_json(const JsonValue& doc, const std::string& at, auto& s,
                      std::initializer_list<std::string_view> skip) {
  for (const auto& [key, value] : doc.members()) {
    if (std::find(skip.begin(), skip.end(), key) != skip.end()) continue;
    bool known = false;
    visit_fields(s, [&](const char* name, auto& field) {
      if (key != name) return;
      from_json(value, at, key, field);
      known = true;
    });
    if (!known)
      throw std::invalid_argument("unknown option '" + at + key + "'");
  }
}

}  // namespace

JsonValue options_to_json(const ExperimentOptions& opts) {
  return fields_to_json(opts);
}

ExperimentOptions options_from_json(
    const JsonValue& doc, std::initializer_list<std::string_view> envelope) {
  if (!doc.is_object())
    throw std::invalid_argument("options document must be an object");
  ExperimentOptions opts;
  fields_from_json(doc, "", opts, envelope);
  // A stuck-fault site becomes an index into the L2's arrays
  // (fault::locate_stored_bit): refuse one the Table-1 L2 does not have.
  const cache::CacheGeometry& l2 = cache::kL2Geometry;
  for (std::size_t i = 0; i < opts.stuck_faults.size(); ++i) {
    const fault::StuckFault& f = opts.stuck_faults[i];
    if (f.set >= l2.num_sets() || f.way >= l2.ways ||
        f.bit >= fault::line_bits(f.target, l2))
      bad_option("stuck_faults[" + std::to_string(i) + "]", "",
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
  cfg.hierarchy.l2.seed = opts.seed;

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
