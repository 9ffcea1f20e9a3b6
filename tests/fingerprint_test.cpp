// Golden fingerprints of simulated behaviour.
//
// Each row is the CRC64 of one cell's lossless RunResult document
// (sim::run_result_to_json, dumped compact) over a fixed grid that reaches
// every timing path of the exec frontend: the four smoke benchmarks under
// each scheme at org / 64K / 256K cleaning (check bits kept at 64K), the
// other three cleaning policies, and online strikes with a permanent and an
// intermittent stuck-at fault under each DUE policy with way retirement.
// Two more cells capture a trace (one of them with strikes) and replay it,
// pinning the replayed result and the trace file's bytes.
//
// A speed-up or refactor must leave every row unchanged. A change that is
// meant to alter simulated results re-blesses the table: on a mismatch the
// test prints the whole actual table in source form, ready to paste over
// kGolden below, so the new values are reviewed in the diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc64.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "trace/replay.hpp"

namespace aeep::sim {
namespace {

using protect::CleaningPolicy;
using protect::DuePolicy;
using protect::SchemeKind;

struct Row {
  std::string label;
  u64 crc;
};

// Generated before the event-driven core change, by the cycle-stepping core.
const std::vector<Row> kGolden = {
    {"gzip/uniform-ecc/org", 0xebab3d69675a7946ull},
    {"gzip/uniform-ecc/64K/codes", 0xebab3d69675a7946ull},
    {"gzip/uniform-ecc/256K", 0xec6bb502266adba9ull},
    {"gzip/non-uniform/org", 0xebab3d69675a7946ull},
    {"gzip/non-uniform/64K/codes", 0xebab3d69675a7946ull},
    {"gzip/non-uniform/256K", 0xec6bb502266adba9ull},
    {"gzip/shared-ecc-array/org", 0xebab3d69675a7946ull},
    {"gzip/shared-ecc-array/64K/codes", 0xebab3d69675a7946ull},
    {"gzip/shared-ecc-array/256K", 0xec6bb502266adba9ull},
    {"gzip/shared/64K/naive", 0xd45c7107be9a99f5ull},
    {"gzip/shared/64K/decay-counter", 0xebab3d69675a7946ull},
    {"gzip/shared/64K/eager-idle", 0x43171bb1b9aa5621ull},
    {"gzip/strikes/uniform-ecc/drop-refetch", 0x35982554e4d7166cull},
    {"gzip/strikes/non-uniform/poison", 0x8b562b265b5669d1ull},
    {"gzip/strikes/shared-ecc-array/panic", 0x460b4c55a4110190ull},
    {"mcf/uniform-ecc/org", 0xbdc232f54e36a028ull},
    {"mcf/uniform-ecc/64K/codes", 0xb5482cb3995ca7e5ull},
    {"mcf/uniform-ecc/256K", 0xbdc232f54e36a028ull},
    {"mcf/non-uniform/org", 0xbdc232f54e36a028ull},
    {"mcf/non-uniform/64K/codes", 0xb5482cb3995ca7e5ull},
    {"mcf/non-uniform/256K", 0xbdc232f54e36a028ull},
    {"mcf/shared-ecc-array/org", 0xbdc232f54e36a028ull},
    {"mcf/shared-ecc-array/64K/codes", 0xb5482cb3995ca7e5ull},
    {"mcf/shared-ecc-array/256K", 0xbdc232f54e36a028ull},
    {"mcf/shared/64K/naive", 0x497fde8878f54804ull},
    {"mcf/shared/64K/decay-counter", 0x95cec768bb6d66b3ull},
    {"mcf/shared/64K/eager-idle", 0xcc9588ec79423228ull},
    {"mcf/strikes/uniform-ecc/drop-refetch", 0x02ea3fe78fdb19baull},
    {"mcf/strikes/non-uniform/poison", 0x77bbbf44b9fcd931ull},
    {"mcf/strikes/shared-ecc-array/panic", 0xb9c3adc918eeac78ull},
    {"swim/uniform-ecc/org", 0x66669aad0bdfcee5ull},
    {"swim/uniform-ecc/64K/codes", 0x66669aad0bdfcee5ull},
    {"swim/uniform-ecc/256K", 0x2497a27f8201999dull},
    {"swim/non-uniform/org", 0x66669aad0bdfcee5ull},
    {"swim/non-uniform/64K/codes", 0x66669aad0bdfcee5ull},
    {"swim/non-uniform/256K", 0x2497a27f8201999dull},
    {"swim/shared-ecc-array/org", 0x66669aad0bdfcee5ull},
    {"swim/shared-ecc-array/64K/codes", 0x66669aad0bdfcee5ull},
    {"swim/shared-ecc-array/256K", 0x2497a27f8201999dull},
    {"swim/shared/64K/naive", 0x66669aad0bdfcee5ull},
    {"swim/shared/64K/decay-counter", 0x66669aad0bdfcee5ull},
    {"swim/shared/64K/eager-idle", 0x66669aad0bdfcee5ull},
    {"swim/strikes/uniform-ecc/drop-refetch", 0xc90702a3c21793e5ull},
    {"swim/strikes/non-uniform/poison", 0x03f3cc147401d9f2ull},
    {"swim/strikes/shared-ecc-array/panic", 0x761f7026b49d7392ull},
    {"art/uniform-ecc/org", 0x0472eb7f7969f769ull},
    {"art/uniform-ecc/64K/codes", 0x2d2abb6452bcb506ull},
    {"art/uniform-ecc/256K", 0x0472eb7f7969f769ull},
    {"art/non-uniform/org", 0x0472eb7f7969f769ull},
    {"art/non-uniform/64K/codes", 0x2d2abb6452bcb506ull},
    {"art/non-uniform/256K", 0x0472eb7f7969f769ull},
    {"art/shared-ecc-array/org", 0x0472eb7f7969f769ull},
    {"art/shared-ecc-array/64K/codes", 0x2d2abb6452bcb506ull},
    {"art/shared-ecc-array/256K", 0x0472eb7f7969f769ull},
    {"art/shared/64K/naive", 0x9b3533a7e34e6904ull},
    {"art/shared/64K/decay-counter", 0x0472eb7f7969f769ull},
    {"art/shared/64K/eager-idle", 0x412928bf550b7153ull},
    {"art/strikes/uniform-ecc/drop-refetch", 0x4791661b3ebf976full},
    {"art/strikes/non-uniform/poison", 0xd0c4d6472e41d436ull},
    {"art/strikes/shared-ecc-array/panic", 0xff0e6d8d74054e76ull},
    {"gzip/capture/shared/256K", 0xec6bb502266adba9ull},
    {"gzip/trace-bytes/shared/256K", 0x106ae0c82430967bull},
    {"gzip/replay/shared/256K", 0xf54dbec5e07d94cdull},
    {"gzip/capture/strikes/shared/256K", 0xab442e078409a5a5ull},
    {"gzip/trace-bytes/strikes/shared/256K", 0x095fd48cddf2b853ull},
    {"gzip/replay/strikes/shared/256K", 0xd7f86a27bd9d1f0eull},
};

constexpr u64 kInstructions = 20'000;
constexpr u64 kWarmup = 5'000;
constexpr Cycle k64K = 64 * 1024;
constexpr Cycle k256K = 256 * 1024;

ExperimentOptions base_options() {
  ExperimentOptions o;
  o.instructions = kInstructions;
  o.warmup_instructions = kWarmup;
  o.seed = 1;
  return o;
}

std::string interval_label(Cycle interval) {
  return interval == 0 ? "org" : std::to_string(interval / 1024) + "K";
}

u64 fingerprint(const RunResult& r) {
  return crc64(run_result_to_json(r).dump(0));
}

u64 file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return crc64(bytes);
}

std::vector<Row> actual_table() {
  std::vector<Row> rows;
  auto add = [&](const std::string& bench, const std::string& what,
                 const ExperimentOptions& o) {
    rows.push_back({bench + "/" + what, fingerprint(run_benchmark(bench, o))});
  };

  for (const std::string& bench : smoke_benchmarks()) {
    for (SchemeKind scheme : {SchemeKind::kUniformEcc, SchemeKind::kNonUniform,
                              SchemeKind::kSharedEccArray}) {
      for (Cycle interval : {Cycle{0}, k64K, k256K}) {
        ExperimentOptions o = base_options();
        o.scheme = scheme;
        o.cleaning_interval = interval;
        o.maintain_codes = interval == k64K;
        add(bench,
            std::string(protect::to_string(scheme)) + "/" +
                interval_label(interval) + (o.maintain_codes ? "/codes" : ""),
            o);
      }
    }
    for (CleaningPolicy policy :
         {CleaningPolicy::kNaive, CleaningPolicy::kDecayCounter,
          CleaningPolicy::kEagerIdle}) {
      ExperimentOptions o = base_options();
      o.scheme = SchemeKind::kSharedEccArray;
      o.cleaning_interval = k64K;
      o.cleaning_policy = policy;
      add(bench, std::string("shared/64K/") + protect::to_string(policy), o);
    }
    const SchemeKind fault_schemes[] = {SchemeKind::kUniformEcc,
                                        SchemeKind::kNonUniform,
                                        SchemeKind::kSharedEccArray};
    const DuePolicy dues[] = {DuePolicy::kDropRefetch, DuePolicy::kPoison,
                              DuePolicy::kPanic};
    for (int i = 0; i < 3; ++i) {
      ExperimentOptions o = base_options();
      o.scheme = fault_schemes[i];
      o.cleaning_interval = k64K;
      o.strikes_enabled = true;
      o.strike_rate_scale = 8e9;
      o.strike_double_bit_fraction = 0.25;
      o.stuck_faults = {
          {fault::FaultTarget::kData, 0, 0, 5, true, 0, 0},
          {fault::FaultTarget::kData, 1, 1, 70, false, 200, 1'000}};
      o.due_policy = dues[i];
      o.retirement_threshold = 4;
      add(bench,
          std::string("strikes/") + protect::to_string(fault_schemes[i]) +
              "/" + protect::to_string(dues[i]),
          o);
    }
  }

  // Capture under one config and replay it under the same config: once
  // plain, once with strikes and an intermittent stuck cell, whose clock
  // the replay's ticks must keep as the core's do.
  const std::string path = testing::TempDir() + "aeep_fingerprint_gzip.aeept";
  ExperimentOptions capture = base_options();
  capture.scheme = SchemeKind::kSharedEccArray;
  capture.cleaning_interval = k256K;
  capture.maintain_codes = true;
  capture.capture_path = path;
  for (const bool strikes : {false, true}) {
    if (strikes) {
      capture.strikes_enabled = true;
      capture.strike_rate_scale = 8e9;
      capture.stuck_faults = {
          {fault::FaultTarget::kData, 1, 1, 70, false, 200, 3}};
      capture.retirement_threshold = 4;
    }
    const std::string tag = strikes ? "strikes/shared/256K" : "shared/256K";
    add("gzip", "capture/" + tag, capture);
    rows.push_back({"gzip/trace-bytes/" + tag, file_crc(path)});
    // ReplayDriver itself: run_benchmark refuses strikes on the trace
    // frontend, the replay tool's externally-ingested path does not.
    trace::ReplayConfig replay;
    replay.hierarchy = make_system_config("gzip", capture).hierarchy;
    replay.trace_path = path;
    rows.push_back({"gzip/replay/" + tag,
                    fingerprint(trace::ReplayDriver(replay).run())});
  }
  std::remove(path.c_str());
  return rows;
}

std::string source_form(const std::vector<Row>& rows) {
  std::ostringstream os;
  for (const Row& r : rows) {
    char crc[24];
    std::snprintf(crc, sizeof crc, "0x%016llxull",
                  static_cast<unsigned long long>(r.crc));
    os << "    {\"" << r.label << "\", " << crc << "},\n";
  }
  return os.str();
}

TEST(GoldenFingerprint, ExecAndTraceCellsMatchTheCommittedTable) {
  const std::vector<Row> actual = actual_table();
  bool same = actual.size() == kGolden.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i)
    same = actual[i].label == kGolden[i].label &&
           actual[i].crc == kGolden[i].crc;
  if (same) return;
  for (std::size_t i = 0; i < actual.size() && i < kGolden.size(); ++i) {
    if (actual[i].label != kGolden[i].label || actual[i].crc != kGolden[i].crc)
      ADD_FAILURE() << "row " << i << " " << actual[i].label << " differs";
  }
  ADD_FAILURE() << actual.size() << " rows, " << kGolden.size()
                << " committed. The whole actual table:\n"
                << source_form(actual);
}

}  // namespace
}  // namespace aeep::sim
