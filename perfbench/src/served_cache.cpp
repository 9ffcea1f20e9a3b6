// served-cache: an in-process JobServer on loopback with a fresh result
// store and two sweep workers, driven in a closed loop by two client
// connections submitting trace-replay jobs. Each distinct cell is sent
// twice in seeded order; a cell's repeat goes out after the reply to the
// client's next first copy, by which time the server's batch holding the
// first copy has finished, store insert included. So every repeat is a
// store hit and every first copy a store insert, fixed counts per job.
//
// The load runs in phases of kPhaseSeconds with host-speed slices timed
// between them, while the clients wait.
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

namespace am = aeep::metrics;
namespace srv = aeep::server;
using aeep::u16;

constexpr const char* kHost = "127.0.0.1";
/// One phase of load between two host-speed slices.
constexpr double kPhaseSeconds = 2.0;

/// Set-up: capture the traces, open a fresh store, start the server and
/// wait for its first pong.
std::unique_ptr<srv::JobServer> start_server(const Options& o, Report& rep,
                                             double& seconds) {
  const auto t0 = am::now();
  const Capture c = capture_traces(o, rep, kServedCell);
  srv::ServerConfig cfg;
  cfg.host = kHost;
  cfg.port = 0;
  cfg.workers = kWorkers;
  cfg.trace_dir = c.dir;
  cfg.store_dir = o.out_dir + "/store";
  cfg.metrics_log_every = 0;
  // Clients read each result right away; a small table keeps the server's
  // memory flat over thousands of jobs.
  cfg.result_retention = 256;
  std::filesystem::remove_all(cfg.store_dir);
  auto server = std::make_unique<srv::JobServer>(cfg);
  server->start();
  srv::Client(kHost, server->port()).ping();
  seconds = seconds_since(t0);
  return server;
}

/// What one client carries from phase to phase.
struct ClientState {
  struct Pending {
    srv::JobSpec spec;
    std::string tag;
    std::string metrics;
  };
  explicit ClientState(u64 seed) : rng(seed) {}
  aeep::Xorshift64Star rng;
  u64 jobs = 0;
  std::optional<Pending> pending;  ///< a first copy whose repeat is due
  std::vector<double> miss_ms;     ///< this phase's first copies: the job ran
  std::vector<double> hit_ms;      ///< this phase's repeats: store hits
};

/// One closed-loop client until `deadline`. Every job is one operation; a
/// job fails when it errors, is dropped, breaks an invariant, misses its
/// committed digest or (repeats) differs from its first copy.
void client_loop(unsigned id, u16 port, am::TimePoint deadline,
                 const std::vector<aeep::sim::SweepJob>& cells,
                 const DigestTable& table, Report& rep, Spans* spans,
                 ClientState& st) {
  try {
    srv::Client client(kHost, port);
    auto call = [&](const srv::JobSpec& spec, double& ms) {
      const auto t0 = am::now();
      const u64 job = client.submit(spec);
      const auto t1 = am::now();
      JsonValue reply = client.result(job, /*wait=*/true, 120'000);
      const auto t2 = am::now();
      ms = am::ms_between(t0, t2);
      if (spans) {
        const Spans::Id parent = spans->reserve();
        spans->record("server.Client.submit", t0, t1, parent);
        spans->record("server.Client.result", t1, t2, parent);
        spans->record_as(parent, "job " + spec.benchmark, t0, t2);
      }
      return reply;
    };
    while (am::now() < deadline) {
      const auto& cell = cells[st.rng.next_below(cells.size())];
      srv::JobSpec spec =
          srv::job_spec_from_options(cell.benchmark, cell.options);
      // A distinct job seed makes every first copy a distinct store key;
      // trace replay does not read it (the L2 replaces by LRU).
      spec.seed = (u64{id} << 32) + ++st.jobs;
      double ms = 0;
      const JsonValue reply = call(spec, ms);
      const JsonValue* m = reply.find("metrics");
      std::string why = !reply.get_bool("ready") || !m ? "not ready" : "";
      if (why.empty()) why = check_metrics_invariants(*m, cell.options);
      if (why.empty())
        why = table.compare("served-cache", cell.tag, metrics_digest(*m));
      rep.op(why.empty(), "job " + cell.tag + ": " + why);
      st.miss_ms.push_back(ms);
      if (st.pending) {
        const JsonValue again = call(st.pending->spec, ms);
        const JsonValue* m2 = again.find("metrics");
        const bool same = again.get_bool("ready") && m2 &&
                          m2->dump(0) == st.pending->metrics;
        rep.op(same,
               "repeat " + st.pending->tag + ": differs from first copy");
        st.hit_ms.push_back(ms);
      }
      st.pending = ClientState::Pending{spec, cell.tag, m ? m->dump(0) : ""};
    }
  } catch (const std::exception& e) {
    rep.op(false, "client " + std::to_string(id) + " dropped: " + e.what());
  }
}

double hist(const JsonValue& snap, const std::string& name,
            const char* field) {
  const JsonValue* h = snap.find("histograms");
  const JsonValue* one = h ? h->find(name) : nullptr;
  return one ? one->get_double(field) : 0.0;
}

double counter(const JsonValue& snap, const std::string& name) {
  const JsonValue* c = snap.find("counters");
  return c ? c->get_double(name) : 0.0;
}

}  // namespace

void run_served_cache(const Options& o, Report& report, Spans& spans) {
  const DigestTable table(o.digests_path, o.seed, o.bless);
  HostReference ref(o.trace ? 0 : kWorkers);
  std::vector<double> setup_s;
  std::unique_ptr<srv::JobServer> server;
  do {
    if (server) server->drain();
    server = start_server(o, report, setup_s.emplace_back());
  } while (!o.trace && more_setups(setup_s));
  ref.sample_for(HostReference::kShare * sum(setup_s));
  std::vector<aeep::sim::SweepJob> cells =
      trace_protect_grid(o.seed, o.out_dir + "/traces", kServedCell);
  for (auto& c : cells) c.options.maintain_codes = false;

  if (o.bless) {
    std::map<std::string, std::string> digests;
    for (const auto& c : cells)
      digests[c.tag] =
          result_digest(aeep::sim::run_benchmark(c.benchmark, c.options));
    table.bless("served-cache", digests);
  }

  am::Registry::instance().reset();
  const u16 port = server->port();
  std::vector<ClientState> clients;
  for (unsigned id = 0; id < 2; ++id)
    clients.emplace_back(o.seed * 7919 + id + 1);
  std::vector<double> miss_ms, hit_ms;
  std::vector<std::vector<double>> phase_miss_ms;
  double wall_s = 0;
  const auto start = am::now();
  do {
    const auto p0 = am::now();
    const double phase = o.trace ? o.seconds : kPhaseSeconds;
    const auto deadline = p0 + std::chrono::duration_cast<am::Duration>(
                                   std::chrono::duration<double>(phase));
    {
      std::vector<std::thread> threads;
      for (unsigned id = 0; id < clients.size(); ++id)
        threads.emplace_back(client_loop, id, port, deadline,
                             std::cref(cells), std::cref(table),
                             std::ref(report), o.trace ? &spans : nullptr,
                             std::ref(clients[id]));
      for (auto& t : threads) t.join();
    }
    const double phase_s = seconds_since(p0);
    wall_s += phase_s;
    ref.sample_for(HostReference::kShare * phase_s);
    std::vector<double>& phase_ms = phase_miss_ms.emplace_back();
    for (auto& c : clients) {
      phase_ms.insert(phase_ms.end(), c.miss_ms.begin(), c.miss_ms.end());
      miss_ms.insert(miss_ms.end(), c.miss_ms.begin(), c.miss_ms.end());
      hit_ms.insert(hit_ms.end(), c.hit_ms.begin(), c.hit_ms.end());
      c.miss_ms.clear();
      c.hit_ms.clear();
    }
  } while (seconds_since(start) < o.seconds);

  if (o.trace) {
    srv::Client client(kHost, port);
    std::vector<double> ping_us;
    for (int i = 0; i < 200; ++i) {
      const auto p0 = am::now();
      client.ping();
      ping_us.push_back(am::ms_since(p0) * 1000.0);
    }
    const auto m0 = am::now();
    const JsonValue reply = client.metrics();
    spans.record("server.Client.metrics", m0, am::now());
    const JsonValue* snap = reply.find("metrics");
    const JsonValue empty = JsonValue::object();
    const JsonValue& s = snap ? *snap : empty;
    report.metric("store.lookup_p50_us", hist(s, "store.lookup_us", "p50"),
                  "us");
    report.metric("store.insert_p50_us", hist(s, "store.insert_us", "p50"),
                  "us");
    const double hits = counter(s, "store.hits");
    const double misses = counter(s, "store.misses");
    report.metric("store.hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.metric("server.queue_wait_p50_us",
                  hist(s, "server.queue_wait_us", "p50"), "us");
    report.metric("server.replay_p50_us", hist(s, "server.replay_us", "p50"),
                  "us");
    report.metric("server.encode_p50_us", hist(s, "server.encode_us", "p50"),
                  "us");
    report.metric("wire.ping_rtt_p50_us", median(ping_us), "us");
    // Store hits run nothing: submit to reply is wire, JSON and store alone.
    report.metric("store.hit_job_p50_us", percentile(hit_ms, 50) * 1000.0,
                  "us");
    report.metric("sim.sweep.occupancy",
                  hist(s, "sim.sweep.cell_us", "sum") * 1e-6 /
                      (wall_s * kWorkers),
                  "ratio");
    // Shares of the summed client-observed job latency.
    double latency_us = 0;
    for (const double ms : miss_ms) latency_us += ms * 1000.0;
    for (const double ms : hit_ms) latency_us += ms * 1000.0;
    const double sim = hist(s, "server.replay_us", "sum");
    const double store = hist(s, "store.lookup_us", "sum");
    const double queue = hist(s, "server.queue_wait_us", "sum");
    if (latency_us > 0) {
      report.metric("sim.share", sim / latency_us, "ratio");
      report.metric("store.share", store / latency_us, "ratio");
      report.metric("server.share", queue / latency_us, "ratio");
      report.metric("wire.share",
                    std::max(0.0, 1.0 - (sim + store + queue) / latency_us),
                    "ratio");
    }
  }

  server->drain();
  const srv::ServerStats st = server->stats();
  const u64 firsts = miss_ms.size(), repeats = hit_ms.size();
  report.op(st.cache_hits == repeats && st.cache_stores == firsts &&
                st.failed == 0 && st.timed_out == 0,
            "server counts: " + std::to_string(st.cache_hits) + " hits for " +
                std::to_string(repeats) + " repeats, " +
                std::to_string(st.cache_stores) + " inserts for " +
                std::to_string(firsts) + " first copies");

  if (!o.trace)
    report_end_to_end(report, static_cast<double>(firsts + repeats), wall_s,
                      phase_miss_ms, setup_s, ref);
  JsonValue d = JsonValue::object();
  d.set("first_copies", JsonValue::number(firsts));
  d.set("repeats", JsonValue::number(repeats));
  d.set("hit_p50_ms", JsonValue::number(percentile(hit_ms, 50)));
  d.set("hit_p90_ms", JsonValue::number(percentile(hit_ms, 90)));
  report.detail("served", std::move(d));
}

}  // namespace perfbench
