// aeep_client — submit experiments to a running aeep_served.
//
//   aeep_client ping    [--host=127.0.0.1 --port=7421]
//   aeep_client traces  — list the traces the server will replay by name
//   aeep_client stats   — queue depth, counters, uptime
//   aeep_client metrics — per-stage latency histograms + counters
//                         (also reachable as `aeep_client --metrics`)
//   aeep_client drain   — ask the server to stop accepting new jobs
//   aeep_client submit  [job flags]            -> prints the job id
//   aeep_client status  --job=N
//   aeep_client result  --job=N [--wait-ms=60000]
//   aeep_client run     [job flags] [--json=FILE]   — submit + wait inline
//
// Connection flags: --retries=N (re-attempt a refused connection N more
// times) and --backoff-ms=MS (base of the jittered exponential backoff
// between attempts — the same fabric::Backoff schedule a
// `paper_figures --workers` fleet run uses). A server that stays
// unreachable exits 6 with a plain-language message, not a raw errno.
//
// Output flags (any reply-printing command): --field=a.b.c extracts one
// value from the reply JSON by dot-path and prints it raw (strings
// unquoted, so `--field=metrics.ipc` or `--field=state` drop straight
// into shell variables; a missing path exits 4); --quiet suppresses the
// reply entirely — the exit code is the answer.
//
// Auth: --token=SECRET attaches the shared token to every request; a
// server started with --token refuses everything but ping without it
// (exit 7).
//
// Job flags: --benchmark=gzip --frontend=exec|trace --scheme=uniform-ecc|
// non-uniform|shared-ecc-array --cleaning-policy=written-bit|naive|
// decay-counter|eager-idle --interval=N --decay-threshold=N --entries=N
// --instructions=N --warmup=N --seed=N --maintain-codes --trace=NAME
// --timeout-ms=N. --warmup fills the job's warmup_instructions. An unknown
// spelling or a malformed number exits 2 before anything is sent.
//
// `run --json=FILE` writes the bench pipeline's schema-v1 document (one
// cell, tag "server"), so a remote run diffs key-for-key against a local
// bench cell. Exit codes: 0 ok, 2 usage, 3 busy (backpressure), 4 not
// found, 5 job timeout, 6 cannot connect, 7 unauthorized, 1 anything else.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "fabric/backoff.hpp"
#include "json_reporter.hpp"
#include "server/client.hpp"

using namespace aeep;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: aeep_client "
      "<ping|traces|stats|metrics|drain|submit|status|result|run> "
      "[--host=127.0.0.1] [--port=7421] [--retries=N] [--backoff-ms=MS] "
      "[--token=SECRET] [--flags]\n"
      "  submit/run job flags: --benchmark --frontend=exec|trace --scheme "
      "--cleaning-policy --interval --decay-threshold --entries "
      "--instructions --warmup --seed --maintain-codes --trace --timeout-ms\n"
      "  status/result: --job=N [--wait-ms=MS]   run: [--json=FILE]\n"
      "  output: --field=a.b.c (print one reply value, raw) --quiet\n");
  return 2;
}

/// Connect, retrying a refused/unreachable server on the fabric's jittered
/// backoff schedule. A fleet of clients pointed at the same recovering
/// server therefore does not reconnect in lockstep. Exits 6 (with a
/// human-readable message, not a bare errno) when every attempt fails.
server::Client connect_or_exit(const std::string& host, u16 port,
                               unsigned retries, u64 backoff_base_ms) {
  fabric::BackoffPolicy policy;
  policy.base_ms = backoff_base_ms == 0 ? 1 : backoff_base_ms;
  fabric::Backoff backoff(policy, /*seed=*/1);
  for (unsigned attempt = 0;; ++attempt) {
    try {
      return server::Client(host, port);
    } catch (const server::ServerError& e) {
      if (attempt >= retries) {
        std::fprintf(stderr,
                     "aeep_client: cannot connect to %s:%u after %u "
                     "attempt(s) — is aeep_served running there?\n"
                     "  (%s)\n",
                     host.c_str(), unsigned{port}, attempt + 1, e.what());
        std::exit(6);
      }
      std::fprintf(stderr,
                   "aeep_client: connect to %s:%u failed (attempt %u of %u), "
                   "backing off...\n",
                   host.c_str(), unsigned{port}, attempt + 1, retries + 1);
      fabric::backoff_sleep(backoff);
    }
  }
}

/// Job flags -> JobSpec; std::invalid_argument on a bad spelling (a bad
/// number exits 2 from CliArgs itself).
server::JobSpec parse_job(const CliArgs& args) {
  server::JobSpec spec;
  spec.benchmark = args.get("benchmark", spec.benchmark);
  spec.frontend = sim::frontend_from_string(args.get("frontend", "exec"));
  spec.scheme = protect::scheme_from_string(args.get("scheme", "uniform-ecc"));
  spec.cleaning_policy = protect::cleaning_policy_from_string(
      args.get("cleaning-policy", "written-bit"));
  spec.cleaning_interval = args.get_u64("interval", spec.cleaning_interval);
  spec.decay_threshold = static_cast<unsigned>(
      args.get_u64("decay-threshold", spec.decay_threshold));
  spec.ecc_entries_per_set = static_cast<unsigned>(
      args.get_u64("entries", spec.ecc_entries_per_set));
  spec.instructions = parse_instructions(args, spec.instructions);
  spec.warmup_instructions =
      args.get_u64("warmup", spec.warmup_instructions);
  spec.seed = args.get_u64("seed", spec.seed);
  spec.maintain_codes = args.get_bool("maintain-codes", spec.maintain_codes);
  spec.trace = args.get("trace", spec.trace);
  spec.timeout_ms = args.get_u64("timeout-ms", spec.timeout_ms);
  return spec;
}

/// How replies reach stdout: full pretty JSON (default), one dot-path
/// extracted value (--field), or nothing at all (--quiet).
struct OutputOptions {
  bool quiet = false;
  std::string field;
};

/// Walk `root` down a dot-separated key path ("metrics.ipc"). nullptr when
/// any hop is missing or a non-object is descended into.
const JsonValue* descend(const JsonValue& root, const std::string& path) {
  const JsonValue* cur = &root;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string key =
        path.substr(start, dot == std::string::npos ? std::string::npos
                                                    : dot - start);
    if (key.empty() || !cur->is_object()) return nullptr;
    cur = cur->find(key);
    if (!cur) return nullptr;
    if (dot == std::string::npos) return cur;
    start = dot + 1;
  }
}

int print_reply(const JsonValue& reply, const OutputOptions& out) {
  if (!out.field.empty()) {
    const JsonValue* v = descend(reply, out.field);
    if (!v) {
      std::fprintf(stderr, "aeep_client: reply has no field '%s'\n",
                   out.field.c_str());
      return 4;
    }
    // Strings print raw (no quotes) so values drop into shell variables;
    // everything else prints as compact JSON.
    if (v->is_string()) std::printf("%s\n", v->as_string().c_str());
    else std::printf("%s\n", v->dump(0).c_str());
    return 0;
  }
  if (!out.quiet) std::printf("%s\n", reply.dump(2).c_str());
  return 0;
}

int run_command(server::Client& client, const server::JobSpec& spec,
                const std::string& json_path, const OutputOptions& out) {
  const JsonValue reply = client.run(spec);
  const JsonValue* metrics = reply.find("metrics");
  if (!json_path.empty() && metrics) {
    bench::CommonOptions o;
    o.instructions = spec.instructions;
    o.warmup = spec.warmup_instructions;
    o.seed = spec.seed;
    o.suite = spec.benchmark;
    bench::JsonReporter reporter("server_run", o, 0);
    reporter.set_config("frontend",
                        JsonValue::string(sim::to_string(spec.frontend)));
    reporter.set_config("scheme",
                        JsonValue::string(protect::to_string(spec.scheme)));
    reporter.set_config("wall_ms",
                        JsonValue::number(reply.get_double("wall_ms", 0.0)));
    reporter.add_cell(spec.benchmark, "server", *metrics);
    if (!reporter.write(json_path)) return 1;
  }
  return print_reply(reply, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    usage();
    return 0;
  }
  // `aeep_client --metrics` is the documented spelling for "dump the
  // server's telemetry"; normalise it to the metrics command.
  int arg_offset = 1;
  if (cmd == "--metrics") {
    cmd = "metrics";
  } else if (cmd.rfind("--", 0) == 0) {
    // A flag where the command should be: let parse_cli see it and fail
    // with the usual unknown-flag message via reject_unknown_flags below.
    arg_offset = 0;
    cmd = "";
  }
  const CliArgs args =
      parse_cli_or_exit(argc - arg_offset, argv + arg_offset);
  try {
    const std::string host = args.get("host", "127.0.0.1");
    const u16 port = static_cast<u16>(args.get_u64("port", 7421));
    const unsigned retries =
        static_cast<unsigned>(args.get_u64("retries", 0));
    const u64 backoff_ms = args.get_u64("backoff-ms", 100);
    const std::string token = args.get("token", "");
    OutputOptions out;
    out.quiet = args.get_bool("quiet", false);
    out.field = args.get("field", "");
    if (cmd.empty()) return usage();
    // Job flags are read before connecting: a bad spelling or a typo'd
    // flag is a usage error whether or not a server is listening.
    std::optional<server::JobSpec> spec;
    std::string json_path;
    if (cmd == "submit" || cmd == "run") {
      spec = parse_job(args);
      if (cmd == "run") json_path = args.get("json", "");
      reject_unknown_flags(args);
    }
    server::Client client = connect_or_exit(host, port, retries, backoff_ms);
    if (!token.empty()) client.set_token(token);
    if (cmd == "ping") {
      reject_unknown_flags(args);
      return print_reply(client.ping(), out);
    } else if (cmd == "traces") {
      reject_unknown_flags(args);
      for (const auto& name : client.traces())
        std::printf("%s\n", name.c_str());
    } else if (cmd == "stats") {
      reject_unknown_flags(args);
      return print_reply(client.stats(), out);
    } else if (cmd == "metrics") {
      reject_unknown_flags(args);
      return print_reply(client.metrics(), out);
    } else if (cmd == "drain") {
      reject_unknown_flags(args);
      return print_reply(client.drain(), out);
    } else if (cmd == "submit") {
      const u64 id = client.submit(*spec);
      if (!out.quiet)
        std::printf("job %llu queued\n", static_cast<unsigned long long>(id));
    } else if (cmd == "status") {
      const u64 id = args.get_u64("job", 0);
      reject_unknown_flags(args);
      return print_reply(client.status(id), out);
    } else if (cmd == "result") {
      const u64 id = args.get_u64("job", 0);
      const u64 wait_ms = args.get_u64("wait-ms", 60'000);
      reject_unknown_flags(args);
      return print_reply(client.result(id, /*wait=*/true, wait_ms), out);
    } else if (cmd == "run") {
      return run_command(client, *spec, json_path, out);
    } else {
      return usage();
    }
  } catch (const std::logic_error& e) {
    // std::invalid_argument / std::out_of_range: a bad flag value.
    std::fprintf(stderr, "aeep_client: %s\n", e.what());
    return 2;
  } catch (const server::ServerError& e) {
    std::fprintf(stderr, "aeep_client: %s\n", e.what());
    switch (e.kind()) {
      case server::ServerErrorKind::kBusy: return 3;
      case server::ServerErrorKind::kNotFound: return 4;
      case server::ServerErrorKind::kTimeout: return 5;
      case server::ServerErrorKind::kUnauthorized: return 7;
      default: return 1;
    }
  }
  return 0;
}
