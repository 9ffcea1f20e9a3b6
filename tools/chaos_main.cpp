// aeep_chaos — a standalone ChaosProxy: sits between clients and one
// aeep_served worker, relays length-prefixed frames, and injects seeded
// faults so the fabric's recovery paths are exercised under real processes
// (the CI chaos smoke job), not just in-process tests.
//
//   aeep_chaos --upstream=127.0.0.1:7501 --listen-port=7601
//              --corrupt=0.05 --seed=7
//
// Flags: --upstream=HOST:PORT (required), --listen-port (0 = pick one),
// --kill --drop --truncate --corrupt (per-frame probabilities), --seed
// (fault draws derive from it — same seed + same connection order = same
// fault schedule).
// SIGTERM/SIGINT stop the proxy and dump the per-fault counters as one
// JSON object on stdout, so scripts can assert faults actually fired.
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "fabric/chaos.hpp"
#include "fabric/endpoint.hpp"

using namespace aeep;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const std::string upstream = args.get("upstream", "");
  const u16 listen_port = static_cast<u16>(args.get_u64("listen-port", 0));
  fabric::ChaosPolicy policy;
  policy.kill = args.get_double("kill", policy.kill);
  policy.drop = args.get_double("drop", policy.drop);
  policy.truncate = args.get_double("truncate", policy.truncate);
  policy.corrupt = args.get_double("corrupt", policy.corrupt);
  policy.seed = args.get_u64("seed", policy.seed);
  reject_unknown_flags(args);
  if (upstream.empty()) {
    std::fprintf(stderr, "aeep_chaos: need --upstream=HOST:PORT\n");
    return 2;
  }

  fabric::WorkerEndpoint up;
  try {
    up = fabric::parse_endpoint(upstream);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeep_chaos: %s\n", e.what());
    return 2;
  }

  fabric::ChaosProxy proxy(up.host, up.port, policy, listen_port);
  try {
    proxy.start();
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "aeep_chaos: %s\n", e.what());
    return 1;
  }
  // Resolved listen port on stdout so scripts using --listen-port=0 can
  // read where to connect (counters also land on stdout, at exit).
  std::printf("aeep_chaos listening on 127.0.0.1:%u -> %s:%u\n",
              unsigned{proxy.port()}, up.host.c_str(), unsigned{up.port});
  std::fflush(stdout);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (g_signal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const fabric::ChaosStats s = proxy.stats();
  proxy.stop();
  JsonValue j = JsonValue::object();
  j.set("connections", JsonValue::number(s.connections));
  j.set("upstream_failures", JsonValue::number(s.upstream_failures));
  j.set("frames_forwarded", JsonValue::number(s.frames_forwarded));
  j.set("killed", JsonValue::number(s.killed));
  j.set("dropped", JsonValue::number(s.dropped));
  j.set("truncated", JsonValue::number(s.truncated));
  j.set("corrupted", JsonValue::number(s.corrupted));
  std::printf("%s\n", j.dump(0).c_str());
  return 0;
}
