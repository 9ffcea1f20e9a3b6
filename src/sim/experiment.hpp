// Experiment-runner helpers shared by the benches, examples and tests:
// building Table-1 system configurations with the protection scheme under
// study, running one benchmark, and pretty-printing the machine description.
// Also the one JSON document of a cell's options, which is both the body of
// a wire job (server/wire.hpp) and the heart of its store key
// (store/digest.hpp).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/enum_string.hpp"
#include "common/json.hpp"
#include "fault/strike_process.hpp"
#include "sim/system.hpp"

namespace aeep::sim {

/// What drives the memory hierarchy for a run.
enum class Frontend {
  kExec,   ///< the out-of-order core executes the synthetic workload
  kTrace,  ///< a recorded L2-visible access stream replays, no core
};

const char* to_string(Frontend f);
/// Inverse of to_string; std::invalid_argument on an unknown spelling.
inline Frontend frontend_from_string(const std::string& s) {
  return enum_from_string<Frontend>(s, "simulation frontend");
}

/// Per-experiment knobs on top of the fixed Table-1 machine.
struct ExperimentOptions {
  protect::SchemeKind scheme = protect::SchemeKind::kUniformEcc;
  Cycle cleaning_interval = 0;   ///< 0 = cleaning disabled
  protect::CleaningPolicy cleaning_policy =
      protect::CleaningPolicy::kWrittenBit;
  unsigned decay_threshold = 2;
  unsigned ecc_entries_per_set = 1;
  u64 instructions = 2'000'000;
  u64 warmup_instructions = 200'000;
  u64 seed = 42;
  /// Skip real check-bit encode/decode for timing-only sweeps (the paper's
  /// metrics never depend on code contents, only on dirty-state dynamics).
  bool maintain_codes = false;

  // --- Frontend selection (execution-driven vs trace-driven) -------------
  Frontend frontend = Frontend::kExec;
  /// kTrace: replay `<trace_dir>/<benchmark>.aeept` (unless trace_path set).
  std::string trace_dir;
  /// kTrace: explicit trace file; overrides trace_dir.
  std::string trace_path;
  /// kExec: record the L2-visible access stream into this file.
  std::string capture_path;

  // --- Online fault injection & recovery ---------------------------------
  /// Poisson strikes into the live L2 arrays during the run. Enabling this
  /// forces maintain_codes and check-on-access validation.
  bool strikes_enabled = false;
  /// Raw per-bit per-cycle strike rate (90nm-class default).
  double strike_lambda = 1e-19;
  /// Acceleration factor making strikes visible at simulation scale.
  double strike_rate_scale = 0.0;
  /// Fraction of strikes that are 2-bit same-word MBUs.
  double strike_double_bit_fraction = 0.0;
  /// Persistent/intermittent stuck-at fault sites.
  std::vector<fault::StuckFault> stuck_faults{};
  /// What to do with a detected-uncorrectable error.
  protect::DuePolicy due_policy = protect::DuePolicy::kDropRefetch;
  /// Errors at one (set, way) before the way retires; 0 = never.
  unsigned retirement_threshold = 0;
  /// Re-fetch retries before a persistently failing line is dropped.
  unsigned max_refetch_retries = 3;

  bool operator==(const ExperimentOptions&) const = default;
};

/// The options document's field list (options_to_json).
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

/// The options document: every semantic field under its struct name, enums
/// by their to_string spelling, stuck faults as objects keyed like
/// fault::StuckFault. The location fields (trace_dir, trace_path,
/// capture_path) name files on one host, not the experiment: never written.
JsonValue options_to_json(const ExperimentOptions& opts);

/// Strict inverse of options_to_json; absent keys keep their defaults and
/// the `envelope` keys, which a containing document adds, are skipped.
/// Unknown keys, kind mismatches, numbers that do not fit their field,
/// unknown enum spellings and stuck-fault sites outside the Table-1 L2
/// (4096 sets, 4 ways, fault::line_bits) throw std::invalid_argument
/// naming the key.
ExperimentOptions options_from_json(
    const JsonValue& doc,
    std::initializer_list<std::string_view> envelope = {});

/// The Table-1 machine with `opts` applied, ready for System().
SystemConfig make_system_config(const std::string& benchmark,
                                const ExperimentOptions& opts);

/// Trace file a kTrace run of `benchmark` replays (trace_path, or the
/// benchmark's file under trace_dir).
std::string trace_path_for(const std::string& benchmark,
                           const ExperimentOptions& opts);

/// Build and run one benchmark.
RunResult run_benchmark(const std::string& benchmark,
                        const ExperimentOptions& opts);

/// Names of all / FP-only / INT-only benchmarks.
std::vector<std::string> all_benchmarks();
std::vector<std::string> fp_benchmarks();
std::vector<std::string> int_benchmarks();

/// Small fixed subset (two INT + two FP) for CI smoke sweeps and the
/// committed BENCH_sweep.json baseline.
std::vector<std::string> smoke_benchmarks();

/// Human-readable Table-1 processor description (printed by bench headers).
std::string table1_text();

}  // namespace aeep::sim
