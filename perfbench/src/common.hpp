// Shared pieces of the repository benchmark: options, the result report
// (operation counts, metrics, the final JSON line), span recording for the
// traced pass, grid cells, output checks and the committed-digest table.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "metrics/clock.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

using aeep::JsonValue;
using aeep::u64;

/// Worker threads of every sweep pool and server the benchmark starts.
inline constexpr unsigned kWorkers = 2;
/// An untraced run sets up at least kSetups times, and again while the
/// set-ups have taken less than kSetupSeconds in all, so that a cheap
/// set-up still gets a steady median; setup_s is that median.
inline constexpr std::size_t kSetups = 5;
inline constexpr double kSetupSeconds = 1.0;
bool more_setups(const std::vector<double>& setup_s);

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;       ///< results, spans and per-run scratch files
  std::string digests_path;  ///< committed per-cell digests
  bool bless = false;        ///< rewrite the digest table instead of checking
};

/// Failure accounting and metrics of one run. Operations are grid cells,
/// server jobs and whole-run checks; a failed operation threw, was dropped
/// or failed an output check.
class Report {
 public:
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Extra detail for the results file (never on the final line).
  void detail(const std::string& key, JsonValue value);

  double fail_ratio() const;

  /// {"correct", "attempted", "failed", "metrics"} — the last stdout line.
  JsonValue final_line() const;
  /// Everything, with run metadata, for the results file.
  JsonValue full(const JsonValue& meta) const;

 private:
  std::mutex mutex_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> failures_;
  JsonValue metrics_ = JsonValue::object();
  JsonValue details_ = JsonValue::object();
};

/// In-memory span log of the traced pass, written out when the run ends.
/// Times are microseconds since the log was created.
class Spans {
 public:
  using Id = u64;
  static constexpr Id kNoParent = 0;

  Id record(const std::string& name, aeep::metrics::TimePoint start,
            aeep::metrics::TimePoint end, Id parent = kNoParent);
  /// Reserve an id for a span whose children are recorded before it ends.
  Id reserve();
  void record_as(Id id, const std::string& name,
                 aeep::metrics::TimePoint start, aeep::metrics::TimePoint end,
                 Id parent = kNoParent);
  void write(const std::string& path) const;

 private:
  struct Span {
    Id id;
    Id parent;
    std::string name;
    double start_us;
    double end_us;
  };
  aeep::metrics::TimePoint origin_ = aeep::metrics::now();
  mutable std::mutex mutex_;
  Id next_id_ = 1;
  std::vector<Span> spans_;
};

class TagModel;

/// Host-speed reference (reference.cpp): a fixed cache-model kernel in the
/// benchmark's own sources, timed in thread CPU time on one thread per
/// worker at once, in slices between the measured phases.
class HostReference {
 public:
  /// Kernel accesses per CPU second of the nominal host: speed() is 1 there.
  static constexpr double kNominalRate = 4.0e7;
  /// Reference time after each measured phase, as a share of the phase.
  static constexpr double kShare = 0.1;

  /// No threads: an inert reference whose speed() is 1 (the traced pass,
  /// which reports no end-to-end times).
  explicit HostReference(unsigned threads);
  ~HostReference();
  /// Time slices for `seconds` (at least one).
  void sample_for(double seconds);
  /// The median slice's speed over the nominal host's. A host time t
  /// measured during the run is t x speed() on the nominal host.
  double speed() const;
  std::size_t slices() const { return speeds_.size(); }
  /// Resident size of the kernel's tables, left out of peak_rss_mb.
  double footprint_mb() const;

 private:
  void slice();
  std::vector<std::unique_ptr<TagModel>> models_;
  std::vector<double> speeds_;
};

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if none.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
double sum(const std::vector<double>& samples);
/// Peak resident set of this process, in MiB.
double peak_rss_mb();
/// User + system CPU time of this process so far, all threads.
double process_cpu_s();
double seconds_since(aeep::metrics::TimePoint t0);

/// "gzip/shared-ecc-array/256K/written-bit" style label of one cell.
std::string cell_key(const std::string& benchmark,
                     const aeep::sim::ExperimentOptions& o);

/// Paper invariants of one cell; returns "" or what broke.
///  - average dirty fraction in [0, 1];
///  - peak dirty lines <= L2 lines, and <= sets x entries for the shared
///    ECC array;
///  - wb_total equals the sum of the three causes in the canonical metrics;
///  - committed reaches the measured target (a trace carries its capture
///    run's count, and trace cells keep the capture's target).
std::string check_invariants(const aeep::sim::RunResult& r,
                             const aeep::sim::ExperimentOptions& o);
/// Same checks over a canonical metrics object (server replies).
std::string check_metrics_invariants(const JsonValue& m,
                                     const aeep::sim::ExperimentOptions& o);

/// CRC64 over the canonical metrics object (sim::run_result_json key set),
/// every value rendered as %.17g, as 16 hex digits.
std::string metrics_digest(const JsonValue& canonical_metrics);
std::string result_digest(const aeep::sim::RunResult& r);

/// Committed per-cell digests, for one seed. No path given, a table for
/// another seed, or blessing: nothing to compare. A missing or unparseable
/// table fails every comparison.
class DigestTable {
 public:
  DigestTable(const std::string& path, u64 seed, bool blessing);
  /// "" when the digest matches (or nothing is compared), else why not.
  std::string compare(const std::string& workload, const std::string& key,
                      const std::string& digest) const;
  /// Replace one workload's table and write the file.
  void bless(const std::string& workload,
             const std::map<std::string, std::string>& digests) const;

 private:
  std::string path_;
  u64 seed_;
  bool blessing_;
  bool same_seed_ = false;
  std::string error_;  ///< why the table could not be read
  JsonValue doc_;
};

// --- workloads (one file each) --------------------------------------------

/// Result of one workload run: metrics go into `report`.
void run_exec_figures(const Options& o, Report& report, Spans& spans);
void run_trace_protect(const Options& o, Report& report, Spans& spans);
void run_served_cache(const Options& o, Report& report, Spans& spans);

// --- grids shared between workloads ----------------------------------------

/// Micro-ops of warm-up and of the measured phase of a cell or trace.
struct CellSize {
  u64 warmup;
  u64 instructions;
};
/// Grid cells: long enough that the L2 is warm and the measured phase
/// dominates construction, short enough for several rounds per run.
inline constexpr CellSize kGridCell{100'000, 200'000};
/// Served jobs: the trace shape the repository's own service load sends
/// (bench/server_throughput and the metrics smoke check: 5K warm-up + 50K
/// measured micro-ops).
inline constexpr CellSize kServedCell{5'000, 50'000};

/// Cells of the exec-figures grid for `seed`: {gzip, mcf, swim, art, apsi,
/// parser} x the four figure configurations.
std::vector<aeep::sim::SweepJob> exec_figures_grid(u64 seed);
/// Capture jobs recording one trace per benchmark into `dir` under the
/// shared-ECC @256K configuration, codes maintained.
std::vector<aeep::sim::SweepJob> capture_grid(u64 seed, const std::string& dir,
                                               CellSize size);
/// Replay cells: schemes x (cleaning ladder x policies + org).
std::vector<aeep::sim::SweepJob> trace_protect_grid(u64 seed,
                                                    const std::string& dir,
                                                    CellSize size);

/// Output checks of grid cells: the cell ran, passes the paper invariants,
/// repeats its first round's digest in later rounds, and (at the committed
/// seed) matches the committed digest. One operation per cell checked.
class CellChecker {
 public:
  CellChecker(std::string workload, const DigestTable& table)
      : workload_(std::move(workload)), table_(table) {}
  void check(Report& rep, const aeep::sim::SweepJob& job,
             const aeep::sim::SweepOutcome& out);
  /// Digest of every cell checked so far, by tag (bless mode).
  const std::map<std::string, std::string>& digests() const { return seen_; }

 private:
  std::string workload_;
  const DigestTable& table_;
  std::map<std::string, std::string> seen_;
};

/// Host-time figures of a pooled grid run.
struct RoundStats {
  u64 cells = 0;
  double wall_s = 0;  ///< summed round walls
  double busy_s = 0;  ///< summed cell walls
  std::vector<double> round_wall_s;
  std::vector<double> round_cpu_s;  ///< process CPU time of each round
  std::vector<std::vector<double>> cell_ms;  ///< cell walls, by round
  std::vector<aeep::sim::SweepOutcome> first;  ///< outcomes of round one

  /// Sum of cell wall / (wall x workers).
  double occupancy() const;
};

/// Run `grid` through a kWorkers-thread SweepRunner round after round
/// until `seconds` have passed (at least one round), checking every cell,
/// with host-speed slices after every round.
RoundStats run_rounds(const std::vector<aeep::sim::SweepJob>& grid,
                      double seconds, CellChecker& checker, Report& rep,
                      Spans* spans, HostReference& ref);

/// cells_per_s, job_p50_ms, job_p90_ms, setup_s and peak_rss_mb, from the
/// times as measured, scaled to the nominal host by `ref`. `job_ms` holds
/// the job latencies of each round or phase of load; a job percentile is
/// the median over rounds of the round's percentile, so that one round on
/// a slow spell of the host does not set it.
void report_end_to_end(Report& rep, double cells, double wall_s,
                       const std::vector<std::vector<double>>& job_ms,
                       const std::vector<double>& setup_s,
                       const HostReference& ref);

/// Trace set-up shared by trace-protect and served-cache: the capture runs
/// record one trace per benchmark into a fresh <out_dir>/traces (capture
/// runs are exec cells and get the cell checks, digests aside).
struct Capture {
  std::string dir;
  std::vector<aeep::sim::SweepJob> jobs;
  std::vector<aeep::sim::SweepOutcome> runs;
  double seconds = 0;
};
Capture capture_traces(const Options& o, Report& rep, CellSize size);

/// Summed simulated counts over cells, reported per cell.
struct SimCounts {
  u64 cells = 0;
  double sim_cycles = 0, committed = 0, commit_stall_wb_full = 0,
         fetch_stall_cycles = 0;
  double l1i_acc = 0, l1i_miss = 0, l1d_acc = 0, l1d_miss = 0;
  double wbuf_stores = 0, wbuf_coalesced = 0, wbuf_full = 0;
  double l2_acc = 0, l2_miss = 0, wb_repl = 0, wb_clean = 0, wb_ecc = 0;
  double bus_busy = 0, bus_queue = 0;
  double inspections = 0, silent_elided = 0;  ///< from traced cells only

  void add(const aeep::sim::RunResult& r);
  void report(Report& rep) const;
};

/// Host-time shares of the traced pass, filled by probe.cpp.
struct LayerTotals {
  double cell_wall_s = 0;      ///< traced cells, summed
  double untraced_wall_s = 0;  ///< the same cells solo, tracing off
  double loop_s = 0;  ///< inside OutOfOrderCore::run / the replay loop
  double workload_s = 0;
  u64 workload_calls = 0;
  double hier_s[4] = {0, 0, 0, 0};  ///< fetch, load, store, tick
  u64 hier_calls[4] = {0, 0, 0, 0};
  u64 store_retries = 0;
  u64 sim_cycles = 0;
  /// Sampling variance of the summed workload and hierarchy estimates.
  double sampled_var_s2 = 0;

  void report(Report& rep, bool exec) const;
};

}  // namespace perfbench
