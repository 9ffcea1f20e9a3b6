// Tests for the fault-tolerant sweep fabric (src/fabric/): the shared
// backoff schedule, worker endpoint parsing, ChaosProxy fault injection
// and the typed errors each fault must surface as, wire-frame
// robustness of the server against malformed bytes, the drain
// endpoint, bounded access logs, and the coordinator's load-bearing
// claim: a grid run through a (possibly dying) fleet returns RunResults
// identical, field for field, to a local SweepRunner run of the same grid,
// with workers that keep failing dropped and their cells run locally —
// behind the same store::run_grid_cached front as a local run.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fabric/backoff.hpp"
#include "fabric/chaos.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/endpoint.hpp"
#include "server/access_log.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::fabric {
namespace {

server::ServerErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const server::ServerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ServerError";
  return server::ServerErrorKind::kInternal;
}

server::ServerConfig worker_config() {
  server::ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  return cfg;
}

/// A 4-cell grid small enough to run in-process in each test.
std::vector<sim::SweepJob> small_grid() {
  const protect::SchemeKind schemes[] = {protect::SchemeKind::kUniformEcc,
                                         protect::SchemeKind::kNonUniform};
  std::vector<sim::SweepJob> grid;
  for (const char* benchmark : {"gzip", "mcf"}) {
    for (const auto scheme : schemes) {
      sim::SweepJob job;
      job.benchmark = benchmark;
      job.tag = protect::to_string(scheme);
      job.options.scheme = scheme;
      job.options.instructions = 20'000;
      job.options.warmup_instructions = 2'000;
      job.options.seed = 7;
      grid.push_back(std::move(job));
    }
  }
  return grid;
}

/// The RunResults every fabric path must reproduce field for field.
std::vector<sim::RunResult> baseline_results(
    const std::vector<sim::SweepJob>& grid) {
  return sim::results_or_throw(grid, sim::SweepRunner(2).run(grid));
}

/// run_grid_cached's compute step on `coord`'s fleet.
store::ComputeFn fleet_compute(Coordinator& coord) {
  return [&coord](const std::vector<sim::SweepJob>& cells,
                  const sim::SweepRunner::ProgressFn& progress) {
    return coord.run(cells, progress);
  };
}

FabricConfig test_config() {
  FabricConfig cfg;
  cfg.backoff.base_ms = 5;
  cfg.backoff.max_ms = 50;
  cfg.call_timeout_ms = 10'000;
  cfg.job_wait_ms = 60'000;
  return cfg;
}

/// A port with nothing behind it: bind, read it, close the listener.
u16 dead_port() {
  server::Listener probe("127.0.0.1", 0);
  const u16 port = probe.port();
  probe.close();
  return port;
}

// --- backoff ---------------------------------------------------------------

TEST(Backoff, ZeroJitterIsTheExactGeometricLadder) {
  BackoffPolicy policy;
  policy.base_ms = 50;
  policy.max_ms = 5'000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Backoff b(policy, 1);
  EXPECT_EQ(b.next_delay_ms(), 50u);
  EXPECT_EQ(b.next_delay_ms(), 100u);
  EXPECT_EQ(b.next_delay_ms(), 200u);
  EXPECT_EQ(b.next_delay_ms(), 400u);
  for (int i = 0; i < 10; ++i) b.next_delay_ms();
  EXPECT_EQ(b.next_delay_ms(), 5'000u);  // capped
  b.reset();
  EXPECT_EQ(b.next_delay_ms(), 50u);
}

TEST(Backoff, SameSeedSameSchedule) {
  const BackoffPolicy policy;  // default jitter 0.5
  Backoff a(policy, 42), b(policy, 42), c(policy, 43);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    const u64 da = a.next_delay_ms();
    EXPECT_EQ(da, b.next_delay_ms());
    diverged = diverged || da != c.next_delay_ms();
  }
  EXPECT_TRUE(diverged) << "different seeds should jitter differently";
}

TEST(Backoff, JitteredDelaysStayWithinTheEnvelope) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 10'000;
  policy.jitter = 0.5;
  Backoff b(policy, 9);
  u64 ceiling = 100;
  for (int i = 0; i < 6; ++i) {
    const u64 d = b.next_delay_ms();
    EXPECT_GE(d, ceiling / 2);
    EXPECT_LE(d, ceiling);
    ceiling = std::min<u64>(ceiling * 2, policy.max_ms);
  }
}

// --- endpoints -------------------------------------------------------------

TEST(Registry, ParseEndpointForms) {
  const WorkerEndpoint bare = parse_endpoint("7500");
  EXPECT_EQ(bare.host, "127.0.0.1");
  EXPECT_EQ(bare.port, 7500);
  const WorkerEndpoint full = parse_endpoint("10.0.0.2:7501");
  EXPECT_EQ(full.host, "10.0.0.2");
  EXPECT_EQ(full.port, 7501);
  EXPECT_EQ(full.display_name(), "10.0.0.2:7501");
  EXPECT_THROW(parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint(":7500"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:notaport"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:70000"), std::invalid_argument);
}

// --- chaos proxy: fault taxonomy over a real server ------------------------

TEST(Chaos, ZeroFaultPolicyIsTransparent) {
  server::JobServer served(worker_config());
  served.start();
  ChaosProxy proxy("127.0.0.1", served.port(), ChaosPolicy{});
  proxy.start();
  server::Client client("127.0.0.1", proxy.port());
  const JsonValue pong = client.ping();
  EXPECT_EQ(pong.get_string("server", ""), "aeep_served");
  EXPECT_EQ(client.stats().get_bool("draining", true), false);
  const ChaosStats s = proxy.stats();
  EXPECT_EQ(s.connections, 1u);
  EXPECT_GE(s.frames_forwarded, 4u);  // two round trips
  EXPECT_EQ(s.killed + s.dropped + s.truncated + s.corrupted, 0u);
  proxy.stop();
  served.stop();
}

TEST(Chaos, CorruptedFramesSurfaceAsProtocolErrors) {
  server::JobServer served(worker_config());
  served.start();
  ChaosPolicy policy;
  policy.corrupt = 1.0;
  ChaosProxy proxy("127.0.0.1", served.port(), policy);
  proxy.start();
  server::Client client("127.0.0.1", proxy.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }),
            server::ServerErrorKind::kProtocol);
  EXPECT_GT(proxy.stats().corrupted, 0u);
  // The server shook off the garbage: a clean connection still works.
  server::Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  proxy.stop();
  served.stop();
}

TEST(Chaos, KilledConnectionsSurfaceAsIoErrors) {
  server::JobServer served(worker_config());
  served.start();
  ChaosPolicy policy;
  policy.kill = 1.0;
  ChaosProxy proxy("127.0.0.1", served.port(), policy);
  proxy.start();
  server::Client client("127.0.0.1", proxy.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }), server::ServerErrorKind::kIo);
  EXPECT_GT(proxy.stats().killed, 0u);
  server::Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  proxy.stop();
  served.stop();
}

TEST(Chaos, TruncatedFramesSurfaceAsIoErrors) {
  server::JobServer served(worker_config());
  served.start();
  ChaosPolicy policy;
  policy.truncate = 1.0;
  ChaosProxy proxy("127.0.0.1", served.port(), policy);
  proxy.start();
  server::Client client("127.0.0.1", proxy.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }), server::ServerErrorKind::kIo);
  EXPECT_GT(proxy.stats().truncated, 0u);
  // The server saw a mid-frame close and must survive it.
  server::Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  proxy.stop();
  served.stop();
}

TEST(Chaos, DroppedFramesTimeOutInsteadOfHanging) {
  server::JobServer served(worker_config());
  served.start();
  ChaosPolicy policy;
  policy.drop = 1.0;
  ChaosProxy proxy("127.0.0.1", served.port(), policy);
  proxy.start();
  server::Client client("127.0.0.1", proxy.port());
  client.set_call_timeout_ms(300);  // never forwarded -> bounded wait
  EXPECT_EQ(kind_of([&] { client.ping(); }), server::ServerErrorKind::kIo);
  EXPECT_GT(proxy.stats().dropped, 0u);
  proxy.stop();
  served.stop();
}

// --- wire-frame robustness: malformed bytes against a live server ----------

TEST(WireRobustness, OversizedDeclaredLengthIsAProtocolError) {
  server::JobServer served(worker_config());
  served.start();
  server::Socket sock = server::connect_to("127.0.0.1", served.port());
  const u8 huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2GB declared
  sock.send_all(huge, sizeof(huge));
  // The server answers with a typed protocol error before closing.
  const auto reply = server::recv_frame(sock, 5'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kind_of([&] { server::check_reply(*reply); }),
            server::ServerErrorKind::kProtocol);
  server::Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  served.stop();
}

TEST(WireRobustness, GarbagePayloadIsAProtocolError) {
  server::JobServer served(worker_config());
  served.start();
  server::Socket sock = server::connect_to("127.0.0.1", served.port());
  const char payload[] = "this is not json";
  const u32 len = sizeof(payload) - 1;
  const u8 prefix[4] = {static_cast<u8>(len & 0xFF),
                        static_cast<u8>((len >> 8) & 0xFF),
                        static_cast<u8>((len >> 16) & 0xFF),
                        static_cast<u8>((len >> 24) & 0xFF)};
  sock.send_all(prefix, sizeof(prefix));
  sock.send_all(payload, len);
  const auto reply = server::recv_frame(sock, 5'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kind_of([&] { server::check_reply(*reply); }),
            server::ServerErrorKind::kProtocol);
  served.stop();
}

TEST(WireRobustness, TruncatedHeaderAndMidFrameDisconnectDoNotWedge) {
  server::JobServer served(worker_config());
  served.start();
  {
    // Two bytes of a four-byte prefix, then gone.
    server::Socket sock = server::connect_to("127.0.0.1", served.port());
    const u8 half[2] = {0x10, 0x00};
    sock.send_all(half, sizeof(half));
  }
  {
    // An honest prefix, a third of the payload, then gone.
    server::Socket sock = server::connect_to("127.0.0.1", served.port());
    const u8 prefix[4] = {30, 0, 0, 0};
    sock.send_all(prefix, sizeof(prefix));
    sock.send_all("{\"type\":\"pi", 10);
  }
  // Neither connection may take the server down or wedge its accept loop.
  server::Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  EXPECT_TRUE(direct.stats().get_bool("ok", false));
  served.stop();
}

// --- drain endpoint --------------------------------------------------------

TEST(Drain, StatsReportLoadAndDrainState) {
  server::JobServer served(worker_config());
  served.start();
  server::Client client("127.0.0.1", served.port());
  const JsonValue h = client.stats();
  EXPECT_TRUE(h.get_bool("ok", false));
  EXPECT_FALSE(h.get_bool("draining", true));
  EXPECT_EQ(h.get_u64("queued", 99), 0u);
  EXPECT_GT(h.get_u64("queue_capacity", 0), 0u);
  served.stop();
}

TEST(Drain, DrainFlipsTheStateAndBouncesNewSubmits) {
  server::JobServer served(worker_config());
  served.start();
  server::Client client("127.0.0.1", served.port());
  const JsonValue d = client.drain();
  EXPECT_TRUE(d.get_bool("draining", false));
  EXPECT_TRUE(client.stats().get_bool("draining", false));
  server::JobSpec spec;
  spec.instructions = 10'000;
  EXPECT_EQ(kind_of([&] { client.submit(spec); }),
            server::ServerErrorKind::kShutdown);
  served.stop();
}

// --- bounded access log ----------------------------------------------------

TEST(AccessLog, RotatesAtTheSizeBoundAndKeepsOneGeneration) {
  const std::string path = testing::TempDir() + "aeep_fabric_access.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  server::AccessLog log;
  log.open(path, 512);
  for (int i = 0; i < 40; ++i) {
    JsonValue f = JsonValue::object();
    f.set("i", JsonValue::number(u64(static_cast<unsigned>(i))));
    log.write("tick", std::move(f));
  }
  EXPECT_GT(log.rotated(), 0u);
  log.close();
  std::FILE* rotated = std::fopen((path + ".1").c_str(), "r");
  ASSERT_NE(rotated, nullptr);
  std::fclose(rotated);
  std::FILE* current = std::fopen(path.c_str(), "r");
  ASSERT_NE(current, nullptr);
  std::fclose(current);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(AccessLog, ConcurrentWritersWithRotationAreRaceFree) {
  // Regression for a TSan-visible race: write() used to early-return on an
  // *unlocked* read of the stream pointer, racing rotate_locked()/close()
  // clearing it on another thread. A tiny rotation bound keeps rotations
  // (and thus writes to the pointer) constant while four writers hammer
  // reads of it; run under -DAEEP_SANITIZE=thread this test fails loudly
  // if the unlocked check ever comes back.
  const std::string path = testing::TempDir() + "aeep_fabric_race.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  server::AccessLog log;
  log.open(path, 256);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < 200; ++i) {
        JsonValue f = JsonValue::object();
        f.set("w", JsonValue::number(u64(static_cast<unsigned>(w))));
        f.set("i", JsonValue::number(u64(static_cast<unsigned>(i))));
        log.write("tick", std::move(f));
      }
    });
  }
  // Concurrent readers of the rotation counter (stats path).
  std::thread reader([&log] {
    for (int i = 0; i < 400; ++i) (void)log.rotated();
  });
  for (auto& t : writers) t.join();
  reader.join();
  EXPECT_GT(log.rotated(), 0u);
  log.close();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(AccessLog, ServerStatsExposeTheRotationCounter) {
  const std::string path =
      testing::TempDir() + "aeep_fabric_served_access.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  server::ServerConfig cfg = worker_config();
  cfg.access_log_path = path;
  cfg.access_log_max_bytes = 400;
  server::JobServer served(cfg);
  served.start();
  server::Client client("127.0.0.1", served.port());
  for (int i = 0; i < 20; ++i) client.ping();
  const JsonValue stats = client.stats();
  EXPECT_GT(stats.get_u64("access_log_rotated", 0), 0u);
  served.stop();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

// --- coordinator -----------------------------------------------------------

TEST(Coordinator, JobSpecFromOptionsRoundTripsExactly) {
  sim::ExperimentOptions options;
  options.scheme = protect::SchemeKind::kSharedEccArray;
  options.cleaning_policy = protect::CleaningPolicy::kDecayCounter;
  options.cleaning_interval = 256 * 1024;
  options.decay_threshold = 3;
  options.ecc_entries_per_set = 2;
  options.instructions = 123'456;
  options.warmup_instructions = 7'890;
  options.seed = 99;
  options.maintain_codes = true;
  options.frontend = sim::Frontend::kTrace;
  options.strikes_enabled = true;
  options.strike_lambda = std::nextafter(1e-19, 1.0);  // all 17 digits
  options.strike_rate_scale = 8e9;
  options.strike_double_bit_fraction = 0.25;
  options.stuck_faults = {
      {fault::FaultTarget::kParity, 12, 2, 7, false, 1'000, 64},
      {fault::FaultTarget::kData, 0, 0, 5, true, 0, 0}};
  options.due_policy = protect::DuePolicy::kPanic;
  options.retirement_threshold = 4;
  options.max_refetch_retries = 1;
  const JsonValue defaults = sim::options_to_json(sim::ExperimentOptions{});
  const JsonValue set = sim::options_to_json(options);
  for (const auto& [key, value] : set.members())
    EXPECT_NE(value.dump(0), defaults.find(key)->dump(0)) << key;

  const server::JobSpec spec =
      server::job_spec_from_options("mcf", options);
  EXPECT_EQ(spec.benchmark, "mcf");
  const server::JobSpec back =
      server::job_spec_from_json(server::job_spec_to_json(spec));
  EXPECT_EQ(back, spec);
  EXPECT_EQ(static_cast<const sim::ExperimentOptions&>(back), options);

  // A local trace directory is not part of the job: the worker resolves
  // the benchmark's registered trace itself.
  sim::ExperimentOptions located = options;
  located.trace_dir = "/local/traces";
  EXPECT_EQ(server::job_spec_to_json(
                server::job_spec_from_options("mcf", located)).dump(0),
            server::job_spec_to_json(spec).dump(0));
}

TEST(Coordinator, StrikeCellThroughTheFleetMatchesLocal) {
  // gzip on the shared ECC array with live strikes, poison DUE policy and
  // way retirement: every knob the wire job carries beyond the paper's
  // protection config must reach the worker, and the store must file the
  // result under the cell that actually ran.
  sim::SweepJob job;
  job.benchmark = "gzip";
  job.tag = "strikes";
  job.options.scheme = protect::SchemeKind::kSharedEccArray;
  job.options.cleaning_interval = 256 * 1024;
  job.options.instructions = 20'000;
  job.options.warmup_instructions = 0;
  job.options.seed = 7;
  job.options.strikes_enabled = true;
  job.options.strike_rate_scale = 8e9;
  job.options.strike_double_bit_fraction = 0.25;
  job.options.due_policy = protect::DuePolicy::kPoison;
  job.options.retirement_threshold = 4;
  const std::vector<sim::SweepJob> grid = {job};
  const sim::RunResult expected = baseline_results(grid)[0];
  ASSERT_GT(expected.strikes.strikes, 0u);
  ASSERT_GT(expected.recovery.checks, 0u);

  const std::string dir = testing::TempDir() + "aeep_fabric_strike_store";
  std::filesystem::remove_all(dir);
  server::JobServer worker(worker_config());
  worker.start();
  store::SweepCache cache({dir, 4096});
  {
    FabricConfig cfg = test_config();
    cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
    Coordinator coord(std::move(cfg));
    const auto outcomes = store::run_grid_cached(fleet_compute(coord), grid,
                                                 &cache);
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
    EXPECT_NE(coord.placements()[0].worker, "local");
    // The counters first, for a readable failure; then every field.
    const sim::RunResult& got = outcomes[0].result;
    EXPECT_EQ(got.strikes.strikes, expected.strikes.strikes);
    EXPECT_EQ(got.recovery.due_events, expected.recovery.due_events);
    EXPECT_EQ(got.recovery.checks, expected.recovery.checks);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(cache.stats().inserts, 1u);
  }
  worker.drain();

  const std::optional<sim::RunResult> stored = cache.lookup(job);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, expected);
}

TEST(Coordinator, NoWorkersRunsLocallyBitExact) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  Coordinator coord(test_config());  // empty fleet
  const auto outcomes = coord.run(grid);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(coord.placements()[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  EXPECT_EQ(coord.stats().jobs_local, grid.size());
}

TEST(Coordinator, FleetRunIsBitExactAgainstTheLocalBaseline) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::JobServer w1(worker_config()), w2(worker_config());
  w1.start();
  w2.start();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(w1.port())),
                 parse_endpoint(std::to_string(w2.port()))};
  cfg.batch_size = 1;  // spread cells across both workers
  Coordinator coord(std::move(cfg));
  std::size_t progress_calls = 0;
  const auto outcomes = coord.run(
      grid, [&](const sim::SweepProgress& p) {
        ++progress_calls;
        EXPECT_LE(p.completed, p.total);
      });
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_NE(coord.placements()[i].worker, "local");
    EXPECT_GT(outcomes[i].wall_seconds, 0.0);  // dispatch to delivery
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  EXPECT_EQ(progress_calls, grid.size());
  EXPECT_EQ(coord.stats().jobs_remote, grid.size());
  EXPECT_EQ(coord.stats().jobs_local, 0u);
  EXPECT_TRUE(coord.dropped().empty());
  w1.drain();
  w2.drain();
}

TEST(Coordinator, DeadWorkerIsRetiredAndTheGridStillCompletes) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::JobServer alive(worker_config());
  alive.start();
  FabricConfig cfg = test_config();
  const WorkerEndpoint dead = parse_endpoint(std::to_string(dead_port()));
  cfg.workers = {parse_endpoint(std::to_string(alive.port())), dead};
  // One cell per dispatch keeps work pending while the live worker
  // simulates, and a 1 ms cool-off lets the dead one burn its three
  // failures long before the grid is done.
  cfg.batch_size = 1;
  cfg.backoff.base_ms = 1;
  cfg.backoff.max_ms = 1;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_NE(coord.placements()[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const auto gone = coord.dropped();
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0].worker, dead.display_name());
  EXPECT_EQ(coord.stats().worker_failures, Coordinator::kDropAfter);
  EXPECT_EQ(coord.stats().jobs_remote, grid.size());
  alive.drain();
}

TEST(Coordinator, SoleWorkerDyingMidRunRetiresThroughDispatchFailures) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  FabricConfig cfg = test_config();
  const WorkerEndpoint dead = parse_endpoint(std::to_string(dead_port()));
  cfg.workers = {dead};
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(coord.placements()[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const auto gone = coord.dropped();
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0].worker, dead.display_name());
  EXPECT_FALSE(gone[0].reason.empty());
  EXPECT_EQ(coord.stats().worker_failures, Coordinator::kDropAfter);
  EXPECT_EQ(coord.stats().jobs_local, grid.size());
}

TEST(Coordinator, AllWorkersDeadDegradesToLocalBitExact) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(dead_port())),
                 parse_endpoint(std::to_string(dead_port()))};
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(coord.placements()[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  EXPECT_EQ(coord.dropped().size(), 2u);
  EXPECT_EQ(coord.stats().worker_failures, 2 * Coordinator::kDropAfter);
  EXPECT_EQ(coord.stats().jobs_local, grid.size());
}

TEST(Coordinator, DrainingWorkerIsBenchedAtProbeTime) {
  // No probe precedes the first dispatch: the draining worker bounces
  // every submit as kShutdown, is dropped after three, and the cells it
  // never ran cost no attempt and run locally.
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::JobServer draining(worker_config());
  draining.start();
  draining.request_drain();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(draining.port()))};
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(coord.placements()[i].worker, "local");
    EXPECT_EQ(coord.placements()[i].attempts, 1u);
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const auto gone = coord.dropped();
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_NE(gone[0].reason.find("draining"), std::string::npos)
      << gone[0].reason;
  draining.stop();
}

TEST(Coordinator, ChaosCorruptionBetweenFleetAndCoordinatorStaysBitExact) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::JobServer w1(worker_config()), w2(worker_config());
  w1.start();
  w2.start();
  ChaosPolicy policy;
  policy.corrupt = 0.08;
  policy.seed = 11;
  ChaosProxy proxy("127.0.0.1", w1.port(), policy);
  proxy.start();
  FabricConfig cfg = test_config();
  // Worker 1 is reached only through the corrupting proxy; worker 2 is
  // clean, so the grid can always complete remotely, whether or not
  // worker 1 fails often enough in a row to be dropped.
  cfg.workers = {parse_endpoint(std::to_string(proxy.port())),
                 parse_endpoint(std::to_string(w2.port()))};
  cfg.max_attempts = 12;  // plenty of retry budget under 8% corruption
  cfg.batch_size = 1;
  cfg.call_timeout_ms = 3'000;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  proxy.stop();
  w1.drain();
  w2.drain();
}

TEST(Coordinator, BusyBouncesChargeNoAttemptAndDropNoWorker) {
  // A one-worker server with a one-slot queue bounces most of each 4-cell
  // batch as kBusy. With a single attempt per cell, a charged bounce would
  // fail its cell; an absorbed one re-queues it for free.
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::ServerConfig wcfg = worker_config();
  wcfg.queue_capacity = 1;
  server::JobServer worker(wcfg);
  worker.start();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
  cfg.batch_size = 4;
  cfg.max_attempts = 1;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_NE(coord.placements()[i].worker, "local");
    EXPECT_EQ(coord.placements()[i].attempts, 1u);
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const FabricStats s = coord.stats();
  EXPECT_GT(s.busy_backoffs, 0u);
  EXPECT_EQ(s.worker_failures, 0u);
  EXPECT_TRUE(coord.dropped().empty());
  worker.drain();
}

TEST(Coordinator, StoreFrontServesWarmRunsAndSharesRecordsWithRunGridCached) {
  // run_grid_cached is the one store front for both executors: fleet
  // records are full RunResults, so a warm fleet run dispatches nothing
  // and a warm local run of the same grid hits every cell.
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  const std::string dir = testing::TempDir() + "aeep_fabric_test_store";
  std::filesystem::remove_all(dir);
  server::JobServer worker(worker_config());
  worker.start();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
  {
    // Cold: the worker computes every cell and the front stores it.
    store::SweepCache cache({dir, 4096});
    Coordinator coord(cfg);
    const auto outcomes =
        store::run_grid_cached(fleet_compute(coord), grid, &cache);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_NE(coord.placements()[i].worker, "local");
      EXPECT_GT(outcomes[i].wall_seconds, 0.0);
      EXPECT_EQ(outcomes[i].result, expected[i]);
    }
    EXPECT_EQ(coord.stats().jobs_remote, grid.size());
    EXPECT_EQ(cache.stats().misses, grid.size());
    EXPECT_EQ(cache.stats().inserts, grid.size());
  }
  const u64 submitted = worker.stats().submitted;
  EXPECT_EQ(submitted, grid.size());
  {
    // Warm fleet run: the store serves every cell; the worker sees nothing.
    store::SweepCache cache({dir, 4096});
    Coordinator coord(cfg);
    const auto outcomes =
        store::run_grid_cached(fleet_compute(coord), grid, &cache);
    EXPECT_EQ(sim::results_or_throw(grid, outcomes), expected);
    EXPECT_EQ(cache.stats().hits, grid.size());
    EXPECT_EQ(cache.stats().inserts, 0u);
    EXPECT_EQ(coord.stats().dispatches, 0u);
    EXPECT_EQ(worker.stats().submitted, submitted);
  }
  worker.drain();

  // Warm local run of the same grid: all hits, equal to the baseline.
  store::SweepCache cache({dir, 4096});
  const sim::SweepRunner runner(2);
  const auto outcomes = store::run_grid_cached(
      [&runner](const std::vector<sim::SweepJob>& cells,
                const sim::SweepRunner::ProgressFn& progress) {
        return runner.run(cells, progress);
      },
      grid, &cache);
  EXPECT_EQ(cache.stats().hits, grid.size());
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(sim::results_or_throw(grid, outcomes), expected);
}

/// Speaks the wire protocol, one connection at a time, but answers every
/// result request with a document the RunResult codec cannot decode.
/// Connections numbered in `hang_ups` (counting from 1) are closed
/// unanswered.
class GarbledWorker {
 public:
  explicit GarbledWorker(std::set<int> hang_ups = {})
      : hang_ups_(std::move(hang_ups)), thread_([this] { serve(); }) {}
  ~GarbledWorker() {
    stop_ = true;
    thread_.join();
  }
  GarbledWorker(const GarbledWorker&) = delete;
  GarbledWorker& operator=(const GarbledWorker&) = delete;

  u16 port() const { return listener_.port(); }
  int results_sent() const { return results_sent_.load(); }

 private:
  void serve() {
    u64 next_id = 0;
    int connections = 0;
    while (!stop_) {
      try {
        std::optional<server::Socket> sock = listener_.accept(50);
        if (!sock) continue;
        if (hang_ups_.count(++connections) != 0) continue;  // closes it
        while (!stop_) {
          if (!sock->wait_readable(50)) continue;
          const std::optional<JsonValue> req = server::recv_frame(*sock);
          if (!req) break;
          const std::string type = req->get_string("type");
          JsonValue reply = server::ok_reply(type);
          if (type == "submit")
            reply.set("job_id", JsonValue::number(++next_id));
          if (type == "result") {
            reply.set("ready", JsonValue::boolean(true));
            JsonValue doc = JsonValue::object();
            doc.set("codec", JsonValue::number(u64{1}));  // no fields
            reply.set("result", std::move(doc));
            ++results_sent_;
          }
          server::send_frame(*sock, reply);
        }
      } catch (const std::exception&) {
        // The coordinator hung up mid-frame; wait for its next connection.
      }
    }
  }

  const std::set<int> hang_ups_;
  server::Listener listener_{"127.0.0.1", 0};
  std::atomic<bool> stop_{false};
  std::atomic<int> results_sent_{0};
  std::thread thread_;
};

TEST(Coordinator, UndecodableResultIsRequeuedAndNeverDelivered) {
  const std::vector<sim::SweepJob> grid = {small_grid()[0]};
  GarbledWorker worker;
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
  cfg.max_attempts = 2;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_NE(outcomes[0].error.find("no decodable result"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(coord.placements()[0].attempts, 2u);
  EXPECT_EQ(worker.results_sent(), 2);
  EXPECT_EQ(coord.stats().jobs_remote, 0u);
  EXPECT_EQ(coord.stats().retries, 1u);
  EXPECT_TRUE(coord.dropped().empty());  // replies arrived: not a failure
}

TEST(Coordinator, SuccessfulRoundTripResetsTheDropStreak) {
  // Connections 1, 2, 4 and 5 hang up at once; 3 and 6 answer. Each
  // answered round trip ends a streak of two failures, one short of
  // kDropAfter, so the worker stays in the run and the cell spends both
  // attempts there. Counting failures without the reset would drop the
  // worker at connection 4 and compute the cell locally.
  static_assert(Coordinator::kDropAfter == 3);
  const std::vector<sim::SweepJob> grid = {small_grid()[0]};
  GarbledWorker worker({1, 2, 4, 5});
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
  cfg.max_attempts = 2;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_NE(outcomes[0].error.find("no decodable result"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(coord.placements()[0].attempts, 2u);
  EXPECT_EQ(worker.results_sent(), 2);
  EXPECT_EQ(coord.stats().worker_failures, 4u);
  EXPECT_TRUE(coord.dropped().empty());
}

}  // namespace
}  // namespace aeep::fabric
