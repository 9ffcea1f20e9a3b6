// Grids, paper-invariant checks and the committed-digest table.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "common/crc64.hpp"
#include "sim/result_json.hpp"

namespace perfbench {

namespace {

using aeep::protect::CleaningPolicy;
using aeep::protect::SchemeKind;
using aeep::sim::ExperimentOptions;
using aeep::sim::SweepJob;

constexpr u64 kInterval256K = u64{256} << 10;

std::string interval_label(u64 interval) {
  if (interval == 0) return "org";
  if (interval % (u64{1} << 20) == 0)
    return std::to_string(interval >> 20) + "M";
  return std::to_string(interval >> 10) + "K";
}

ExperimentOptions base_options(u64 seed, CellSize size) {
  ExperimentOptions o;
  o.seed = seed;
  o.warmup_instructions = size.warmup;
  o.instructions = size.instructions;
  return o;
}

std::vector<std::string> grid_benchmarks() {
  return {"gzip", "mcf", "swim", "art", "apsi", "parser"};
}

/// The capture configuration: shared ECC array, one entry per set, @256K,
/// codes maintained. The grid cell equal to it must replay bit-for-bit.
ExperimentOptions capture_options(u64 seed, CellSize size) {
  ExperimentOptions o = base_options(seed, size);
  o.scheme = SchemeKind::kSharedEccArray;
  o.ecc_entries_per_set = 1;
  o.cleaning_interval = kInterval256K;
  o.maintain_codes = true;
  return o;
}

}  // namespace

std::string cell_key(const std::string& benchmark, const ExperimentOptions& o) {
  std::string k = benchmark + "/" + aeep::protect::to_string(o.scheme);
  if (o.scheme == SchemeKind::kSharedEccArray)
    k += std::to_string(o.ecc_entries_per_set);
  k += "/" + interval_label(o.cleaning_interval);
  if (o.cleaning_interval != 0)
    k += std::string("/") + aeep::protect::to_string(o.cleaning_policy);
  return k;
}

std::vector<SweepJob> exec_figures_grid(u64 seed) {
  struct Config {
    SchemeKind scheme;
    u64 interval;
  };
  // Fig. 1 (uniform ECC, no cleaning), Figs. 3-6 (non-uniform @256K, @1M),
  // Figs. 7-8 (shared ECC array, one entry per set, @256K).
  const Config configs[] = {{SchemeKind::kUniformEcc, 0},
                            {SchemeKind::kNonUniform, kInterval256K},
                            {SchemeKind::kNonUniform, u64{1} << 20},
                            {SchemeKind::kSharedEccArray, kInterval256K}};
  std::vector<SweepJob> grid;
  for (const auto& b : grid_benchmarks()) {
    for (const Config& c : configs) {
      ExperimentOptions o = base_options(seed, kGridCell);
      o.scheme = c.scheme;
      o.cleaning_interval = c.interval;
      o.maintain_codes = false;
      grid.push_back({b, o, cell_key(b, o)});
    }
  }
  return grid;
}

std::vector<SweepJob> capture_grid(u64 seed, const std::string& dir,
                                   CellSize size) {
  std::vector<SweepJob> grid;
  for (const auto& b : grid_benchmarks()) {
    ExperimentOptions o = capture_options(seed, size);
    o.capture_path = dir + "/" + b + ".aeept";
    grid.push_back({b, o, "capture:" + b});
  }
  return grid;
}

std::vector<SweepJob> trace_protect_grid(u64 seed, const std::string& dir,
                                         CellSize size) {
  const SchemeKind schemes[] = {SchemeKind::kUniformEcc,
                                SchemeKind::kNonUniform,
                                SchemeKind::kSharedEccArray};
  const u64 ladder[] = {u64{64} << 10, kInterval256K, u64{1} << 20,
                        u64{4} << 20};
  const CleaningPolicy policies[] = {
      CleaningPolicy::kWrittenBit, CleaningPolicy::kNaive,
      CleaningPolicy::kDecayCounter, CleaningPolicy::kEagerIdle};
  std::vector<SweepJob> grid;
  for (const auto& b : grid_benchmarks()) {
    for (const SchemeKind s : schemes) {
      auto add = [&](u64 interval, CleaningPolicy p) {
        ExperimentOptions o = capture_options(seed, size);
        o.frontend = aeep::sim::Frontend::kTrace;
        o.trace_dir = dir;
        o.scheme = s;
        o.cleaning_interval = interval;
        o.cleaning_policy = p;
        grid.push_back({b, o, cell_key(b, o)});
      };
      for (const u64 i : ladder)
        for (const CleaningPolicy p : policies) add(i, p);
      add(0, CleaningPolicy::kWrittenBit);  // org: cleaning off
    }
  }
  return grid;
}

namespace {

std::string check_common(double dirty_fraction, double peak, double wb_total,
                         double wb_sum, double committed,
                         const ExperimentOptions& o) {
  const auto geom = aeep::sim::make_system_config("", o).hierarchy.l2.geometry;
  if (!(dirty_fraction >= 0.0 && dirty_fraction <= 1.0))
    return "dirty fraction outside [0,1]";
  if (peak > static_cast<double>(geom.total_lines()))
    return "peak dirty lines exceed the L2 line count";
  if (o.scheme == SchemeKind::kSharedEccArray &&
      peak > static_cast<double>(geom.num_sets() * o.ecc_entries_per_set))
    return "peak dirty lines exceed sets x ECC entries";
  if (wb_total != wb_sum) return "wb_total differs from the sum of causes";
  if (committed < static_cast<double>(o.instructions))
    return "committed fell short of the measured target";
  return "";
}

}  // namespace

std::string check_invariants(const aeep::sim::RunResult& r,
                             const ExperimentOptions& o) {
  return check_metrics_invariants(aeep::sim::run_result_json(r), o);
}

std::string check_metrics_invariants(const JsonValue& m,
                                     const ExperimentOptions& o) {
  const double sum = m.get_double("wb_replacement") +
                     m.get_double("wb_cleaning") + m.get_double("wb_ecc");
  return check_common(m.get_double("avg_dirty_fraction", -1.0),
                      m.get_double("peak_dirty_lines"),
                      m.get_double("wb_total", -1.0), sum,
                      m.get_double("committed"), o);
}

std::string metrics_digest(const JsonValue& canonical_metrics) {
  std::string text;
  char buf[64];
  for (const auto& [key, value] : canonical_metrics.members()) {
    std::snprintf(buf, sizeof buf, "=%.17g;", value.as_double());
    text += key;
    text += buf;
  }
  std::snprintf(buf, sizeof buf, "%016" PRIx64, aeep::crc64(text));
  return buf;
}

std::string result_digest(const aeep::sim::RunResult& r) {
  return metrics_digest(aeep::sim::run_result_json(r));
}

DigestTable::DigestTable(const std::string& path, u64 seed, bool blessing)
    : path_(path), seed_(seed), blessing_(blessing),
      doc_(JsonValue::object()) {
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) {
    error_ = "digest table " + path + " is missing";
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  auto doc = aeep::json_parse(ss.str());
  if (!doc || !doc->find("seed")) {
    error_ = "digest table " + path + " does not parse";
    return;
  }
  doc_ = std::move(*doc);
  same_seed_ = doc_.get_u64("seed", ~u64{0}) == seed;
}

std::string DigestTable::compare(const std::string& workload,
                                 const std::string& key,
                                 const std::string& digest) const {
  if (blessing_) return "";
  if (!error_.empty()) return error_;
  if (!same_seed_) return "";
  const JsonValue* table = doc_.find(workload);
  const JsonValue* want = table ? table->find(key) : nullptr;
  if (!want) return "no committed digest for " + key;
  if (want->as_string() != digest)
    return "digest " + digest + " != committed " + want->as_string() +
           " for " + key;
  return "";
}

void DigestTable::bless(const std::string& workload,
                        const std::map<std::string, std::string>& digests) const {
  JsonValue doc = same_seed_ ? doc_ : JsonValue::object();
  doc.set("seed", JsonValue::number(seed_));
  JsonValue table = JsonValue::object();
  for (const auto& [k, v] : digests) table.set(k, JsonValue::string(v));
  doc.set(workload, std::move(table));
  std::ofstream(path_) << doc.dump(1) << "\n";
}

}  // namespace perfbench
