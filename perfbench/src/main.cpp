// perfbench — the repository benchmark.
//
//   perfbench --workload exec-figures|trace-protect|served-cache
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--digests FILE] [--git-rev REV] [--src-digest HEX] [--bless]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that splits host time by layer and reports the
// per-layer metrics of the layers the workload exercises (run.py reports
// the others as 0, with their units from BENCHMARK.json). Every
// run checks its outputs; the last stdout line is
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// and the line before it the run metadata. The full report goes to
// DIR/results/, the traced run's spans to DIR/spans/.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

const char* build_refusal() {
#ifndef NDEBUG
  return "assertions are on (Debug-style build); timings would not be "
         "representative";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build; timings would not be representative";
#endif
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string git_rev = "unknown", src_digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") { o.trace = value() == "1"; have_trace = true; }
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--digests") o.digests_path = value();
    else if (a == "--git-rev") git_rev = value();
    else if (a == "--src-digest") src_digest = value();
    else if (a == "--bless") o.bless = true;
    else usage(("unknown flag " + a).c_str());
  }
  if (o.out_dir.empty() || !have_trace || o.seconds <= 0)
    usage("need --workload, --seed, --seconds > 0, --trace and --out-dir");
  if (const char* why = build_refusal()) usage(why);

  void (*run)(const Options&, Report&, Spans&) = nullptr;
  if (o.workload == "exec-figures") run = run_exec_figures;
  else if (o.workload == "trace-protect") run = run_trace_protect;
  else if (o.workload == "served-cache") run = run_served_cache;
  else usage(("unknown workload " + o.workload).c_str());

  namespace fs = std::filesystem;
  fs::create_directories(o.out_dir + "/results");
  fs::create_directories(o.out_dir + "/spans");

  Report report;
  Spans spans;
  try {
    run(o, report, spans);
  } catch (const std::exception& e) {
    report.op(false, std::string("run aborted: ") + e.what());
  }
  fs::remove_all(o.out_dir + "/traces");
  fs::remove_all(o.out_dir + "/store");

  JsonValue meta = JsonValue::object();
  meta.set("workload", JsonValue::string(o.workload));
  meta.set("seed", JsonValue::number(o.seed));
  meta.set("seconds", JsonValue::number(o.seconds));
  meta.set("trace", JsonValue::boolean(o.trace));
  meta.set("git_rev", JsonValue::string(git_rev));
  meta.set("src_digest", JsonValue::string(src_digest));
  meta.set("nproc", JsonValue::number(
                        u64{std::max(1u, std::thread::hardware_concurrency())}));
  meta.set("workers", JsonValue::number(u64{kWorkers}));
  meta.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
  meta.set("caches_warmed", JsonValue::boolean(true));
  meta.set("fail_ratio", JsonValue::number(report.fail_ratio()));
  meta.set("model",
           JsonValue::string("unvalidated: no hardware reference, so no "
                             "simulated-vs-real error figure is reported"));

  const std::string stem = o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0");
  std::ofstream(o.out_dir + "/results/" + stem + ".json")
      << report.full(meta).dump(1) << "\n";
  if (o.trace) spans.write(o.out_dir + "/spans/" + stem + ".json");

  JsonValue meta_line = JsonValue::object();
  meta_line.set("meta", meta);
  std::printf("%s\n%s\n", meta_line.dump(0).c_str(),
              report.final_line().dump(0).c_str());
  return 0;
}
