// aeep_metrics — dump and diff telemetry snapshots from a running
// aeep_served.
//
//   aeep_metrics dump [--host=127.0.0.1 --port=7421] [--token=SECRET]
//                     [--out=FILE]
//   aeep_metrics diff OLD.json NEW.json
//
// `dump` fetches the server's metrics registry snapshot (histograms with
// raw log2 buckets + counters) and prints it as JSON — or writes it to
// --out for a later diff. `diff` loads two dump files from the *same*
// server and prints the interval between them: for every histogram the
// bucket-wise difference (what HistogramSnapshot::diff_since computes),
// for every counter the numeric delta. That turns two cheap snapshots
// into a per-stage latency profile of exactly the traffic in between —
// the before/after workflow EXPERIMENTS.md E28 uses.
//
// A histogram that was reset between the two dumps cannot be diffed
// (bucket counts would go negative); it is reported as "reset" and
// skipped rather than failing the whole diff.
//
// Exit codes: 0 ok, 1 error (unreadable file, malformed snapshot),
// 2 usage, 6 cannot connect, 7 unauthorized.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "metrics/histogram.hpp"
#include "server/client.hpp"

using namespace aeep;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: aeep_metrics dump [--host=127.0.0.1] [--port=7421] "
      "[--token=SECRET] [--out=FILE]\n"
      "       aeep_metrics diff OLD.json NEW.json\n");
  return 2;
}

/// Slurp a dump file back in. nullopt (with a message) on any failure.
std::optional<JsonValue> read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");  // aeep-lint: allow(raw-fs-call)
  if (!f) {
    std::fprintf(stderr, "aeep_metrics: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  // aeep-lint: allow(raw-file-io) — tool-local text slurp, not trace I/O
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::optional<JsonValue> doc = json_parse(text);
  if (!doc || !doc->is_object() || doc->find("histograms") == nullptr) {
    std::fprintf(stderr,
                 "aeep_metrics: %s is not a metrics snapshot "
                 "(expected {\"histograms\": ..., \"counters\": ...})\n",
                 path.c_str());
    return std::nullopt;
  }
  return doc;
}

int dump_command(const CliArgs& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const u16 port = static_cast<u16>(args.get_u64("port", 7421));
  const std::string token = args.get("token", "");
  const std::string out_path = args.get("out", "");
  reject_unknown_flags(args);

  JsonValue snapshot;
  try {
    server::Client client(host, port);
    if (!token.empty()) client.set_token(token);
    const JsonValue reply = client.metrics();
    const JsonValue* m = reply.find("metrics");
    if (!m) {
      std::fprintf(stderr, "aeep_metrics: reply carried no metrics object\n");
      return 1;
    }
    snapshot = *m;
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "aeep_metrics: %s\n", e.what());
    if (e.kind() == server::ServerErrorKind::kUnauthorized) return 7;
    if (e.kind() == server::ServerErrorKind::kIo) return 6;
    return 1;
  }

  const std::string text = snapshot.dump(2) + "\n";
  if (out_path.empty()) {
    std::printf("%s", text.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");  // aeep-lint: allow(raw-fs-call)
  if (!f) {
    std::fprintf(stderr, "aeep_metrics: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);  // aeep-lint: allow(raw-file-io)
  std::fclose(f);
  return 0;
}

void print_interval(const std::string& name,
                    const metrics::HistogramSnapshot& d) {
  std::printf("%-32s count %-8llu p50 %-10.0f p99 %-10.0f max %llu\n",
              name.c_str(), static_cast<unsigned long long>(d.count),
              d.percentile(50.0), d.percentile(99.0),
              static_cast<unsigned long long>(d.max));
}

int diff_command(const std::string& old_path, const std::string& new_path) {
  const std::optional<JsonValue> older = read_snapshot_file(old_path);
  const std::optional<JsonValue> newer = read_snapshot_file(new_path);
  if (!older || !newer) return 1;

  std::printf("interval %s -> %s\n", old_path.c_str(), new_path.c_str());
  std::printf("histograms (interval population, us):\n");
  const JsonValue* new_hists = newer->find("histograms");
  const JsonValue* old_hists = older->find("histograms");
  for (const auto& [name, doc] : new_hists->members()) {
    const std::optional<metrics::HistogramSnapshot> after =
        metrics::HistogramSnapshot::from_json(doc);
    if (!after) {
      std::fprintf(stderr, "aeep_metrics: malformed histogram '%s' in %s\n",
                   name.c_str(), new_path.c_str());
      return 1;
    }
    const JsonValue* old_doc =
        old_hists != nullptr ? old_hists->find(name) : nullptr;
    if (!old_doc) {
      // Born after the first dump: the whole history is the interval.
      print_interval(name + " (new)", *after);
      continue;
    }
    const std::optional<metrics::HistogramSnapshot> before =
        metrics::HistogramSnapshot::from_json(*old_doc);
    if (!before) {
      std::fprintf(stderr, "aeep_metrics: malformed histogram '%s' in %s\n",
                   name.c_str(), old_path.c_str());
      return 1;
    }
    const std::optional<metrics::HistogramSnapshot> interval =
        after->diff_since(*before);
    if (!interval) {
      std::printf("%-32s (reset between snapshots; not diffable)\n",
                  name.c_str());
      continue;
    }
    if (interval->empty()) continue;  // no traffic this interval
    print_interval(name, *interval);
  }

  std::printf("counters (delta):\n");
  const JsonValue* new_counts = newer->find("counters");
  const JsonValue* old_counts = older->find("counters");
  if (new_counts != nullptr) {
    for (const auto& [name, v] : new_counts->members()) {
      const u64 after = v.as_u64();
      const JsonValue* old_v =
          old_counts != nullptr ? old_counts->find(name) : nullptr;
      const u64 before = old_v != nullptr ? old_v->as_u64() : 0;
      if (after == before) continue;
      if (after < before) {
        std::printf("%-32s (reset between snapshots)\n", name.c_str());
        continue;
      }
      std::printf("%-32s +%llu\n", name.c_str(),
                  static_cast<unsigned long long>(after - before));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    usage();
    return 0;
  }
  if (cmd == "dump") {
    const CliArgs args = parse_cli_or_exit(argc - 1, argv + 1);
    return dump_command(args);
  }
  if (cmd == "diff") {
    // Two positional paths, no flags.
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) paths.emplace_back(argv[i]);
    if (paths.size() != 2) return usage();
    return diff_command(paths[0], paths[1]);
  }
  return usage();
}
