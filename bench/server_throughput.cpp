// server_throughput — load generator for the aeep_served job service.
//
//   server_throughput --connections=8 --jobs-total=400 [--json=FILE]
//
// By default it self-hosts: captures the smoke-suite traces into a scratch
// directory, starts an in-process JobServer on an ephemeral port, then
// hammers it over real TCP from N concurrent client connections submitting
// trace-replay jobs round-robin across the smoke benchmarks. Point it at
// an external server with --host/--port (then --trace-dir names traces the
// *server* must already have registered — the names, not the files, cross
// the wire).
//
// A kBusy reply (bounded-queue backpressure) is counted and retried after
// a short backoff; it is load shedding working as designed. Anything else
// that fails — submit error, failed job, lost connection — counts as
// `dropped`, and the acceptance gate is simple: jobs_per_sec >= 250 with
// dropped == 0 on the smoke config. The --json cell carries jobs/sec plus
// client-observed latency percentiles (submit -> result received).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "json_reporter.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/experiment.hpp"

using namespace aeep;

namespace {

struct LoadStats {
  std::vector<double> latencies_ms;
  u64 completed = 0;
  u64 busy_replies = 0;
  u64 dropped = 0;
  std::mutex mutex;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Capture one smoke trace per benchmark into `dir` (tiny runs: the bench
/// measures service throughput, not simulator speed).
void capture_traces(const std::string& dir, const bench::RunOptions& o) {
  std::filesystem::create_directories(dir);
  for (const auto& b : sim::smoke_benchmarks()) {
    sim::ExperimentOptions eo;
    eo.instructions = o.instructions;
    eo.warmup_instructions = o.warmup;
    eo.seed = o.seed;
    eo.capture_path = dir + "/" + b + ".aeept";
    sim::run_benchmark(b, eo);
    std::fprintf(stderr, "captured %s\n", eo.capture_path.c_str());
  }
}

void worker(const std::string& host, u16 port, u64 jobs,
            const bench::RunOptions& o, unsigned worker_id,
            LoadStats& stats) {
  const auto benchmarks = sim::smoke_benchmarks();
  try {
    server::Client client(host, port);
    for (u64 i = 0; i < jobs; ++i) {
      server::JobSpec spec;
      spec.benchmark = benchmarks[(worker_id + i) % benchmarks.size()];
      spec.frontend = sim::Frontend::kTrace;
      spec.instructions = o.instructions;
      spec.warmup_instructions = o.warmup;
      spec.seed = o.seed;
      const auto t0 = std::chrono::steady_clock::now();
      u64 job_id = 0;
      while (true) {
        try {
          job_id = client.submit(spec);
          break;
        } catch (const server::ServerError& e) {
          if (e.kind() != server::ServerErrorKind::kBusy) throw;
          {
            const std::lock_guard<std::mutex> lock(stats.mutex);
            ++stats.busy_replies;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      const JsonValue reply = client.result(job_id, /*wait=*/true,
                                            /*wait_ms=*/120'000);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const std::lock_guard<std::mutex> lock(stats.mutex);
      if (reply.get_bool("ready", false)) {
        ++stats.completed;
        stats.latencies_ms.push_back(ms);
      } else {
        ++stats.dropped;
      }
    }
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "worker %u dropped out: %s\n", worker_id, e.what());
    const std::lock_guard<std::mutex> lock(stats.mutex);
    ++stats.dropped;  // at minimum the in-flight job is gone
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  bench::CommonOptions o;
  static_cast<bench::RunOptions&>(o) = bench::parse_run(args);
  // Throughput defaults: small jobs, the point is requests/sec.
  if (!args.has("instructions")) o.instructions = 50'000;
  if (!args.has("warmup")) o.warmup = 5'000;
  const u64 connections = args.get_u64("connections", 8);
  const u64 jobs_total = args.get_u64("jobs-total", 400);
  const std::string ext_host = args.get("host", "");
  const u16 ext_port = static_cast<u16>(args.get_u64("port", 0));
  const u64 queue_capacity = args.get_u64("queue-capacity", 256);
  o.json_path = args.get("json", "");
  std::string trace_dir = args.get("trace-dir", "");
  reject_unknown_flags(args);

  // Self-host unless pointed at an external server.
  std::unique_ptr<server::JobServer> local;
  std::string host = ext_host;
  u16 port = ext_port;
  if (ext_host.empty()) {
    if (trace_dir.empty()) {
      trace_dir = (std::filesystem::temp_directory_path() /
                   "aeep_server_throughput_traces")
                      .string();
      capture_traces(trace_dir, o);
    }
    server::ServerConfig cfg;
    cfg.port = 0;
    cfg.workers = o.jobs;
    cfg.queue_capacity = static_cast<std::size_t>(queue_capacity);
    cfg.max_connections = static_cast<std::size_t>(connections) + 8;
    cfg.trace_dir = trace_dir;
    try {
      local = std::make_unique<server::JobServer>(cfg);
      local->start();
    } catch (const server::ServerError& e) {
      // For one, a --trace-dir it cannot scan.
      std::fprintf(stderr, "server_throughput: %s\n", e.what());
      return 1;
    }
    host = "127.0.0.1";
    port = local->port();
    std::fprintf(stderr, "self-hosted aeep_served on port %u (%s)\n",
                 unsigned{port}, trace_dir.c_str());
  }

  bench::JsonReporter reporter("server_throughput", o,
                               static_cast<unsigned>(connections));
  reporter.set_config("connections", JsonValue::number(connections));
  reporter.set_config("jobs_total", JsonValue::number(jobs_total));
  reporter.set_config("queue_capacity", JsonValue::number(queue_capacity));
  // Every job it sends replays a smoke-suite trace.
  reporter.set_config("suite", JsonValue::string("smoke"));
  reporter.set_config("frontend", JsonValue::string("trace"));

  LoadStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (u64 c = 0; c < connections; ++c) {
    const u64 share = jobs_total / connections +
                      (c < jobs_total % connections ? 1 : 0);
    threads.emplace_back(worker, host, port, share, std::cref(o),
                         static_cast<unsigned>(c), std::ref(stats));
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  const double jobs_per_sec =
      seconds > 0.0 ? static_cast<double>(stats.completed) / seconds : 0.0;

  JsonValue metrics = JsonValue::object();
  metrics.set("jobs_per_sec", JsonValue::number(jobs_per_sec));
  metrics.set("completed", JsonValue::number(stats.completed));
  metrics.set("dropped", JsonValue::number(stats.dropped));
  metrics.set("busy_replies", JsonValue::number(stats.busy_replies));
  metrics.set("wall_seconds", JsonValue::number(seconds));
  metrics.set("p50_ms", JsonValue::number(percentile(stats.latencies_ms, 50)));
  metrics.set("p90_ms", JsonValue::number(percentile(stats.latencies_ms, 90)));
  metrics.set("p99_ms", JsonValue::number(percentile(stats.latencies_ms, 99)));
  metrics.set("max_ms", JsonValue::number(
                            stats.latencies_ms.empty()
                                ? 0.0
                                : stats.latencies_ms.back()));
  reporter.add_cell("smoke", "aggregate", std::move(metrics));

  std::printf("=== server_throughput ===\n");
  std::printf("%llu jobs over %llu connections in %.2fs\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(connections), seconds);
  std::printf("throughput: %.1f jobs/sec\n", jobs_per_sec);
  std::printf("latency ms: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
              percentile(stats.latencies_ms, 50),
              percentile(stats.latencies_ms, 90),
              percentile(stats.latencies_ms, 99),
              stats.latencies_ms.empty() ? 0.0 : stats.latencies_ms.back());
  std::printf("backpressure: %llu busy replies (retried), %llu dropped\n",
              static_cast<unsigned long long>(stats.busy_replies),
              static_cast<unsigned long long>(stats.dropped));
  if (!reporter.write(o.json_path)) return 1;

  if (local) local->drain();
  return stats.dropped == 0 ? 0 : 1;
}
