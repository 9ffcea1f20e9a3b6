// Machine-readable results for the figure benches (--json=<path>).
//
// Every bench that accepts the common options can hand its per-cell metrics
// to a JsonReporter and get a stable, diffable JSON file: insertion-ordered
// keys, a fixed top-level schema, and one "cells" entry per (benchmark, tag)
// pair. CI diffs the key structure of a fresh smoke run against the
// committed BENCH_sweep.json to catch schema drift.
//
// Schema (version 2):
//   {
//     "schema_version": 2,
//     "experiment":     "<bench name>",
//     "git_rev":        "<short rev or 'unknown'>",
//     "jobs":           <worker count used>,
//     "wall_clock_seconds": <double>,
//     "config":         { instructions, warmup, seed, suite, ... },
//     "cells": [ { "benchmark": ..., "tag": ...,
//                  "wall_clock_seconds": <double>, "metrics": {...} }, ... ]
//   }
// v2 adds the per-cell wall_clock_seconds: each cell's own compute time
// (0.0 when the bench has no per-cell timing). Consumers comparing cells
// for value identity across worker counts must strip it first — it is the
// one field that legitimately differs between otherwise bit-exact runs.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "sim/result_json.hpp"
#include "sim/system.hpp"

namespace aeep::bench {

/// Best-effort short git revision; "unknown" outside a work tree.
inline std::string git_short_rev() {
  std::string rev = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p)) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (!s.empty()) rev = s;
    }
    ::pclose(p);
  }
#endif
  return rev;
}

/// Accumulates one bench invocation's results and writes the --json file.
class JsonReporter {
 public:
  JsonReporter(std::string experiment, const CommonOptions& o, unsigned jobs) {
    root_ = JsonValue::object();
    root_.set("schema_version", JsonValue::number(u64{2}));
    root_.set("experiment", JsonValue::string(std::move(experiment)));
    root_.set("git_rev", JsonValue::string(git_short_rev()));
    root_.set("jobs", JsonValue::number(u64{jobs}));
    root_.set("wall_clock_seconds", JsonValue::number(0.0));
    JsonValue config = JsonValue::object();
    config.set("instructions", JsonValue::number(o.instructions));
    config.set("warmup", JsonValue::number(o.warmup));
    config.set("seed", JsonValue::number(o.seed));
    config.set("suite", JsonValue::string(o.suite));
    config.set("frontend", JsonValue::string("exec"));
    root_.set("config", std::move(config));
    root_.set("cells", JsonValue::array());
    start_ = std::chrono::steady_clock::now();
  }

  /// Add a bench-specific configuration key (sweep axis values etc.).
  void set_config(const std::string& key, JsonValue v) {
    root_.find("config")->set(key, std::move(v));
  }

  /// Record one result cell. `wall_seconds` is the cell's own compute time
  /// (schema v2); benches without per-cell timing leave the 0.0 default.
  void add_cell(const std::string& benchmark, const std::string& tag,
                JsonValue metrics, double wall_seconds = 0.0) {
    JsonValue cell = JsonValue::object();
    cell.set("benchmark", JsonValue::string(benchmark));
    cell.set("tag", JsonValue::string(tag));
    cell.set("wall_clock_seconds", JsonValue::number(wall_seconds));
    cell.set("metrics", std::move(metrics));
    root_.find("cells")->push(std::move(cell));
  }

  /// Seconds since construction (the bench's wall clock).
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Stamp the wall clock and write the file; no-op when `path` is empty.
  /// Returns false (with the path and the error on stderr) when the file
  /// cannot be written.
  bool write(const std::string& path) {
    if (path.empty()) return true;
    root_.set("wall_clock_seconds", JsonValue::number(elapsed_seconds()));
    const std::string text = root_.dump(2) + "\n";
    // Whole-document overwrite of a human-readable report.
    FILE* f = std::fopen(path.c_str(), "w");  // aeep-lint: allow(raw-fs-call)
    bool ok = f != nullptr && std::fputs(text.c_str(), f) >= 0;
    // The text may sit in the stdio buffer until fclose flushes it, so a
    // full disk can first show up there.
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) {
      std::fprintf(stderr, "cannot write --json file %s: %s\n", path.c_str(),
                   std::strerror(errno));
      return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonValue root_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aeep::bench
