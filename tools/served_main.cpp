// aeep_served — the networked simulation service.
//
//   aeep_served --port=7421 --trace-dir=traces/ --access-log=served.log
//
// Accepts experiment / trace-replay jobs over TCP (length-prefixed JSON
// frames — see src/server/wire.hpp) into a bounded queue that --workers
// threads take jobs from, oldest first, one at a time. A submit against a
// full queue is answered with a "busy" error, never queued unboundedly.
// SIGTERM/SIGINT drain gracefully — stop taking jobs, finish what is
// queued and running, flush the access log, exit 0.
//
// Flags: --host (default 127.0.0.1), --port (default 7421; 0 = pick one
// and print it), --workers (job-running threads; 0 = one per hardware
// thread), --queue-capacity, --max-connections, --timeout-ms (default
// per-job wall clock), --retention (finished jobs kept queryable),
// --trace-dir (directory of .aeept files clients may name), --access-log
// (file; "-" = stderr), --access-log-max-bytes (rotate the log to .1 past
// this size; 0 = never), --store (result-store directory: submits whose
// content digest hits the store are answered from cache without reaching
// a worker), --metrics-log-every (write a per-stage histogram summary
// line to the access log every N terminal jobs; 0 = only at drain),
// --token (shared secret: every request except ping must carry it or is
// refused "unauthorized").
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/cli.hpp"
#include "server/server.hpp"

using namespace aeep;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  server::ServerConfig cfg;
  cfg.host = args.get("host", cfg.host);
  cfg.port = static_cast<u16>(args.get_u64("port", 7421));
  cfg.workers = static_cast<unsigned>(args.get_u64("workers", 0));
  cfg.queue_capacity = static_cast<std::size_t>(
      args.get_u64("queue-capacity", cfg.queue_capacity));
  cfg.max_connections = static_cast<std::size_t>(
      args.get_u64("max-connections", cfg.max_connections));
  cfg.default_timeout_ms = args.get_u64("timeout-ms", cfg.default_timeout_ms);
  cfg.result_retention = static_cast<std::size_t>(
      args.get_u64("retention", cfg.result_retention));
  cfg.trace_dir = args.get("trace-dir", "");
  cfg.access_log_path = args.get("access-log", "");
  cfg.access_log_max_bytes =
      args.get_u64("access-log-max-bytes", cfg.access_log_max_bytes);
  cfg.store_dir = args.get("store", "");
  cfg.metrics_log_every =
      args.get_u64("metrics-log-every", cfg.metrics_log_every);
  cfg.token = args.get("token", "");
  reject_unknown_flags(args);

  server::JobServer served(cfg);
  try {
    served.start();
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "aeep_served: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // e.g. a corrupt --store segment (trace::TraceError)
    std::fprintf(stderr, "aeep_served: %s\n", e.what());
    return 1;
  }
  // Print the resolved port on stdout so scripts using --port=0 can read
  // where to connect (everything chatty goes to stderr).
  std::printf("aeep_served listening on %s:%u\n", cfg.host.c_str(),
              unsigned{served.port()});
  std::fflush(stdout);
  std::fprintf(stderr,
               "aeep_served: queue-capacity=%zu timeout-ms=%llu "
               "traces=%zu (SIGTERM drains)\n",
               cfg.queue_capacity,
               static_cast<unsigned long long>(cfg.default_timeout_ms),
               served.registry().size());

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (g_signal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::fprintf(stderr, "aeep_served: signal %d, draining...\n",
               static_cast<int>(g_signal));
  const u64 completed = served.drain();
  std::fprintf(stderr, "aeep_served: drained, %llu jobs completed, bye\n",
               static_cast<unsigned long long>(completed));
  return 0;
}
