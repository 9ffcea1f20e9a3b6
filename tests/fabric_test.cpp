// Tests for the fault-tolerant sweep fabric (src/fabric/): the shared
// backoff schedule, fleet registry scoring/retirement, ChaosProxy fault
// injection and the typed errors each fault must surface as, wire-frame
// robustness of the server against malformed bytes, the health/drain
// endpoints, bounded access logs, and the coordinator's load-bearing
// claim: a grid run through a (possibly dying) fleet returns RunResults
// identical, field for field, to a local SweepRunner run of the same grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fabric/backoff.hpp"
#include "fabric/chaos.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/registry.hpp"
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

FabricConfig test_config() {
  FabricConfig cfg;
  cfg.backoff.base_ms = 5;
  cfg.backoff.max_ms = 50;
  cfg.call_timeout_ms = 10'000;
  cfg.job_wait_ms = 60'000;
  cfg.straggler_min_ms = 60'000;  // no speculation unless a test asks
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

// --- registry --------------------------------------------------------------

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

TEST(Registry, ConsecutiveFailuresRetirePermanently) {
  WorkerRegistry reg({parse_endpoint("7500"), parse_endpoint("7501")}, 3);
  EXPECT_EQ(reg.live(), 2u);
  EXPECT_FALSE(reg.note_failure(0, "a"));
  EXPECT_EQ(reg.state(0), WorkerState::kSuspect);
  EXPECT_FALSE(reg.note_failure(0, "b"));
  EXPECT_TRUE(reg.note_failure(0, "c"));  // third strike retires
  EXPECT_EQ(reg.state(0), WorkerState::kRetired);
  EXPECT_EQ(reg.live(), 1u);
  // Retirement is permanent: successes and further failures are no-ops.
  reg.note_success(0);
  EXPECT_EQ(reg.state(0), WorkerState::kRetired);
  EXPECT_FALSE(reg.note_failure(0, "d"));
  const auto log = reg.retirement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].worker, "127.0.0.1:7500");
  EXPECT_EQ(log[0].reason, "c");
  EXPECT_EQ(log[0].consecutive_failures, 3u);
}

TEST(Registry, SuccessResetsTheFailureStreak) {
  WorkerRegistry reg({parse_endpoint("7500")}, 3);
  reg.note_failure(0, "a");
  reg.note_failure(0, "b");
  reg.note_success(0);
  EXPECT_EQ(reg.state(0), WorkerState::kHealthy);
  EXPECT_EQ(reg.consecutive_failures(0), 0u);
  // The streak starts over: two more failures still do not retire.
  reg.note_failure(0, "c");
  EXPECT_FALSE(reg.note_failure(0, "d"));
  EXPECT_EQ(reg.live(), 1u);
}

TEST(Registry, RetireAfterZeroNeverRetires) {
  WorkerRegistry reg({parse_endpoint("7500")}, 0);
  for (int i = 0; i < 20; ++i)
    EXPECT_FALSE(reg.note_failure(0, "flap"));
  EXPECT_EQ(reg.state(0), WorkerState::kSuspect);
  EXPECT_EQ(reg.live(), 1u);
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
  EXPECT_EQ(client.health().get_bool("draining", true), false);
  const ChaosStats s = proxy.stats();
  EXPECT_EQ(s.connections, 1u);
  EXPECT_GE(s.frames_forwarded, 4u);  // two round trips
  EXPECT_EQ(s.killed + s.dropped + s.truncated + s.corrupted + s.delayed, 0u);
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

// --- health + drain endpoints ----------------------------------------------

TEST(HealthDrain, HealthReportsLoadAndDrainState) {
  server::JobServer served(worker_config());
  served.start();
  server::Client client("127.0.0.1", served.port());
  const JsonValue h = client.health();
  EXPECT_TRUE(h.get_bool("ok", false));
  EXPECT_FALSE(h.get_bool("draining", true));
  EXPECT_EQ(h.get_u64("queued", 99), 0u);
  EXPECT_GT(h.get_u64("queue_capacity", 0), 0u);
  served.stop();
}

TEST(HealthDrain, DrainFlipsTheStateAndBouncesNewSubmits) {
  server::JobServer served(worker_config());
  served.start();
  server::Client client("127.0.0.1", served.port());
  const JsonValue d = client.drain();
  EXPECT_TRUE(d.get_bool("draining", false));
  EXPECT_TRUE(client.health().get_bool("draining", false));
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
  const server::JobSpec spec =
      server::job_spec_from_options("mcf", options);
  EXPECT_EQ(spec.benchmark, "mcf");
  const sim::ExperimentOptions back = server::to_experiment_options(spec);
  EXPECT_EQ(back.scheme, options.scheme);
  EXPECT_EQ(back.cleaning_policy, options.cleaning_policy);
  EXPECT_EQ(back.cleaning_interval, options.cleaning_interval);
  EXPECT_EQ(back.decay_threshold, options.decay_threshold);
  EXPECT_EQ(back.ecc_entries_per_set, options.ecc_entries_per_set);
  EXPECT_EQ(back.instructions, options.instructions);
  EXPECT_EQ(back.warmup_instructions, options.warmup_instructions);
  EXPECT_EQ(back.seed, options.seed);
  EXPECT_EQ(back.maintain_codes, options.maintain_codes);
  EXPECT_EQ(back.frontend, options.frontend);
}

TEST(Coordinator, NoWorkersRunsLocallyBitExact) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  Coordinator coord(test_config());  // empty fleet
  const auto outcomes = coord.run(grid);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].worker, "local");
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
      grid, [&](const FabricProgress& p) {
        ++progress_calls;
        EXPECT_LE(p.completed, p.total);
      });
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_NE(outcomes[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  EXPECT_EQ(progress_calls, grid.size());
  EXPECT_EQ(coord.stats().jobs_remote, grid.size());
  EXPECT_EQ(coord.stats().jobs_local, 0u);
  EXPECT_TRUE(coord.registry().retirement_log().empty());
  w1.drain();
  w2.drain();
}

TEST(Coordinator, DeadWorkerIsRetiredAndTheGridStillCompletes) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  server::JobServer alive(worker_config());
  alive.start();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(alive.port())),
                 parse_endpoint(std::to_string(dead_port()))};
  cfg.retire_after = 2;
  Coordinator coord(std::move(cfg));
  // Probe once up front (failure #1); run() probes again (failure #2),
  // which retires the dead endpoint before any dispatch.
  EXPECT_EQ(coord.probe_fleet(), 2u);  // suspect, but not yet retired
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const auto log = coord.registry().retirement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].worker, coord.registry().endpoint(1).display_name());
  EXPECT_EQ(coord.stats().jobs_remote, grid.size());
  alive.drain();
}

TEST(Coordinator, SoleWorkerDyingMidRunRetiresThroughDispatchFailures) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(dead_port()))};
  cfg.retire_after = 3;  // probe fails once, dispatches burn the rest
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  const auto log = coord.registry().retirement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].consecutive_failures, 3u);
  EXPECT_GT(coord.stats().worker_failures, 0u);
}

TEST(Coordinator, AllWorkersDeadDegradesToLocalBitExact) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(dead_port())),
                 parse_endpoint(std::to_string(dead_port()))};
  cfg.retire_after = 1;  // one failed probe is enough
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].worker, "local");
    EXPECT_EQ(outcomes[i].result, expected[i]);
  }
  EXPECT_EQ(coord.registry().live(), 0u);
  EXPECT_EQ(coord.registry().retirement_log().size(), 2u);
  EXPECT_EQ(coord.stats().jobs_local, grid.size());
}

TEST(Coordinator, DisabledFallbackFailsCellsInsteadOfComputingThem) {
  const auto grid = small_grid();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(dead_port()))};
  cfg.retire_after = 1;
  cfg.allow_local_fallback = false;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  for (const auto& oc : outcomes) {
    EXPECT_FALSE(oc.ok());
    EXPECT_NE(oc.error.find("local fallback is disabled"), std::string::npos)
        << oc.error;
  }
}

TEST(Coordinator, DrainingWorkerIsBenchedAtProbeTime) {
  server::JobServer draining(worker_config());
  draining.start();
  draining.request_drain();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(draining.port()))};
  Coordinator coord(std::move(cfg));
  EXPECT_EQ(coord.probe_fleet(), 0u);
  const auto log = coord.registry().retirement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].reason, "worker is draining");
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
  // clean, so the grid can always complete remotely.
  cfg.workers = {parse_endpoint(std::to_string(proxy.port())),
                 parse_endpoint(std::to_string(w2.port()))};
  cfg.retire_after = 0;   // flaky != dead; never bench it
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

TEST(Coordinator, StoreFrontServesWarmRunsAndSharesRecordsWithRunGridCached) {
  const auto grid = small_grid();
  const auto expected = baseline_results(grid);
  const std::string dir = testing::TempDir() + "aeep_fabric_test_store";
  std::filesystem::remove_all(dir);
  server::JobServer worker(worker_config());
  worker.start();
  FabricConfig cfg = test_config();
  cfg.workers = {parse_endpoint(std::to_string(worker.port()))};
  cfg.store_dir = dir;
  {
    // Cold: the worker computes every cell and the coordinator stores it.
    Coordinator coord(cfg);
    const auto outcomes = coord.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_NE(outcomes[i].worker, "cache");
      EXPECT_EQ(outcomes[i].result, expected[i]);
    }
    EXPECT_EQ(coord.stats().jobs_remote, grid.size());
    EXPECT_EQ(coord.stats().store_inserts, grid.size());
  }
  {
    // Warm: the store serves every cell and nothing is dispatched.
    Coordinator coord(cfg);
    const auto outcomes = coord.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_EQ(outcomes[i].worker, "cache");
      EXPECT_EQ(outcomes[i].attempts, 0u);
      EXPECT_EQ(outcomes[i].result, expected[i]);
    }
    EXPECT_EQ(coord.stats().jobs_cached, grid.size());
    EXPECT_EQ(coord.stats().dispatches, 0u);
    EXPECT_EQ(coord.stats().store_inserts, 0u);
  }
  worker.drain();

  // The fleet's records are full RunResults, so the local cache-fronted
  // grid path (the benches, aeep_coord --local) hits every cell as well.
  store::SweepCache cache({dir, 4096});
  const auto outcomes =
      store::run_grid_cached(sim::SweepRunner(2), grid, &cache);
  EXPECT_EQ(cache.stats().hits, grid.size());
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(sim::results_or_throw(grid, outcomes), expected);
}

/// Speaks the wire protocol, one connection at a time, but answers every
/// result request with a document the RunResult codec cannot decode.
class GarbledWorker {
 public:
  GarbledWorker() : thread_([this] { serve(); }) {}
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
    while (!stop_) {
      try {
        std::optional<server::Socket> sock = listener_.accept(50);
        if (!sock) continue;
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
  cfg.retire_after = 0;
  cfg.max_attempts = 2;
  cfg.allow_local_fallback = false;
  Coordinator coord(std::move(cfg));
  const auto outcomes = coord.run(grid);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_NE(outcomes[0].error.find("no decodable result"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(worker.results_sent(), 2);
  EXPECT_EQ(coord.stats().jobs_remote, 0u);
  EXPECT_EQ(coord.stats().retries, 1u);
}

}  // namespace
}  // namespace aeep::fabric
