// Tests for the networked job service (src/server/): wire-protocol framing
// and JobSpec mapping, the JobServer's queueing/backpressure/timeout/drain
// semantics over real loopback TCP, and the load-bearing equivalence claim:
// a trace-replay job through the server returns bit-identical metrics to
// the same replay run in-process.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/histogram.hpp"
#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "store/result_store.hpp"

namespace aeep::server {
namespace {

std::string temp_trace(const char* name) {
  return testing::TempDir() + "aeep_server_test_" + name + ".aeept";
}

/// Capture a small gzip trace and return its path.
std::string capture_gzip(const char* name, u64 instructions = 30'000) {
  const std::string path = temp_trace(name);
  sim::ExperimentOptions eo;
  eo.instructions = instructions;
  eo.warmup_instructions = 5'000;
  eo.capture_path = path;
  sim::run_benchmark("gzip", eo);
  return path;
}

ServerErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ServerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ServerError";
  return ServerErrorKind::kInternal;
}

// --- wire protocol (no sockets) -------------------------------------------

TEST(ServerWire, JobSpecRoundTripsThroughJson) {
  JobSpec spec;
  spec.benchmark = "mcf";
  spec.frontend = sim::Frontend::kTrace;
  spec.scheme = protect::SchemeKind::kSharedEccArray;
  spec.cleaning_policy = protect::CleaningPolicy::kDecayCounter;
  spec.cleaning_interval = 64 * 1024;
  spec.decay_threshold = 3;
  spec.ecc_entries_per_set = 2;
  spec.instructions = 123'456;
  spec.warmup_instructions = 7'890;
  spec.seed = 99;
  spec.maintain_codes = true;
  spec.strikes_enabled = true;
  spec.strike_lambda = std::nextafter(1e-19, 1.0);  // needs all 17 digits
  spec.strike_rate_scale = 8e9;
  spec.strike_double_bit_fraction = 0.25;
  spec.stuck_faults = {
      {fault::FaultTarget::kData, 4'095, 3, 511, false, 100, 50},
      {fault::FaultTarget::kEcc, 7, 1, 63, true, 0, 0}};
  spec.due_policy = protect::DuePolicy::kPoison;
  spec.retirement_threshold = 4;
  spec.max_refetch_retries = 5;
  spec.trace = "mcf_long";
  spec.timeout_ms = 5'000;

  // Every semantic field is off its default, so the round trip below
  // exercises each key of the options document.
  const JsonValue defaults = sim::options_to_json(sim::ExperimentOptions{});
  const JsonValue set = sim::options_to_json(spec);
  for (const auto& [key, value] : set.members())
    EXPECT_NE(value.dump(0), defaults.find(key)->dump(0)) << key;

  const JsonValue j = job_spec_to_json(spec);
  EXPECT_NE(j.find("warmup_instructions"), nullptr);
  const JobSpec back = job_spec_from_json(j);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.trace_name(), "mcf_long");
}

TEST(ServerWire, DefaultTraceNameIsTheBenchmark) {
  JobSpec spec;
  spec.benchmark = "swim";
  EXPECT_EQ(spec.trace_name(), "swim");
}

TEST(ServerWire, UnknownJobFieldIsBadRequest) {
  JsonValue j = JsonValue::object();
  j.set("benchmork", JsonValue::string("gzip"));  // typo must not be ignored
  EXPECT_EQ(kind_of([&] { job_spec_from_json(j); }),
            ServerErrorKind::kBadRequest);
}

/// kind_of(job_spec_from_json(doc)), for a doc given as JSON text.
ServerErrorKind job_refusal(const char* text) {
  const std::optional<JsonValue> doc = json_parse(text);
  if (!doc) {
    ADD_FAILURE() << "unparsable test document " << text;
    return ServerErrorKind::kInternal;
  }
  return kind_of([&] { job_spec_from_json(*doc); });
}

TEST(ServerWire, BadEnumSpellingsAreBadRequests) {
  for (const char* doc :
       {R"({"scheme": "parity"})", R"({"cleaning_policy": "lazy"})",
        R"({"frontend": "dramsim"})", R"({"due_policy": "posion"})",
        R"({"stuck_faults": [{"target": "tag"}]})"})
    EXPECT_EQ(job_refusal(doc), ServerErrorKind::kBadRequest) << doc;
}

TEST(ServerWire, LocationFieldsNeverCross) {
  // Clients name traces; a path on the wire is refused, not ignored.
  for (const char* doc :
       {R"({"trace_path": "/tmp/x.aeept"})", R"({"trace_dir": "/tmp"})",
        R"({"capture_path": "/tmp/out.aeept"})"})
    EXPECT_EQ(job_refusal(doc), ServerErrorKind::kBadRequest) << doc;
}

TEST(ServerWire, KindMismatchesAndOverflowsAreBadRequests) {
  for (const char* doc :
       {R"({"cleaning_interval": "1M"})", R"({"maintain_codes": "true"})",
        R"({"decay_threshold": 4294967296})", R"({"seed": -1})",
        R"({"instructions": 1.5})", R"({"strike_rate_scale": "8e9"})",
        R"({"stuck_faults": {"set": 1}})", R"({"benchmark": 7})",
        R"({"trace": false})", R"({"timeout_ms": "5s"})"})
    EXPECT_EQ(job_refusal(doc), ServerErrorKind::kBadRequest) << doc;
  // An integer is a fine double; the largest 32-bit value fits.
  const JobSpec fits = job_spec_from_json(*json_parse(
      R"({"strike_rate_scale": 8, "decay_threshold": 4294967295})"));
  EXPECT_EQ(fits.strike_rate_scale, 8.0);
  EXPECT_EQ(fits.decay_threshold, 4'294'967'295u);
}

TEST(ServerWire, StuckFaultSitesOutsideTheL2AreBadRequests) {
  for (const char* doc :
       {R"({"stuck_faults": [{"way": 4}]})",
        R"({"stuck_faults": [{"target": "data", "bit": 512}]})",
        R"({"stuck_faults": [{"set": 4096}]})",
        R"({"stuck_faults": [{"target": "parity", "bit": 8}]})",
        R"({"stuck_faults": [{"target": "ecc", "bit": 64}]})"})
    EXPECT_EQ(job_refusal(doc), ServerErrorKind::kBadRequest) << doc;
  // The last set, way and bit of each array are real sites.
  const JobSpec edge = job_spec_from_json(*json_parse(
      R"({"stuck_faults": [{"set": 4095, "way": 3, "bit": 511},)"
      R"( {"target": "parity", "bit": 7}, {"target": "ecc", "bit": 63}]})"));
  ASSERT_EQ(edge.stuck_faults.size(), 3u);
  EXPECT_EQ(edge.stuck_faults[0].set, 4'095u);
  EXPECT_EQ(edge.stuck_faults[2].target, fault::FaultTarget::kEcc);
}

TEST(ServerWire, WireCodesRoundTrip) {
  for (const auto kind :
       {ServerErrorKind::kIo, ServerErrorKind::kProtocol,
        ServerErrorKind::kBadRequest, ServerErrorKind::kBusy,
        ServerErrorKind::kNotFound, ServerErrorKind::kTimeout,
        ServerErrorKind::kShutdown, ServerErrorKind::kInternal})
    EXPECT_EQ(kind_from_wire_code(wire_code(kind)), kind);
}

TEST(ServerWire, CheckReplyRaisesTypedErrors) {
  const JsonValue busy = error_reply(ServerErrorKind::kBusy, "queue full");
  EXPECT_EQ(kind_of([&] { check_reply(busy); }), ServerErrorKind::kBusy);
  const JsonValue fine = ok_reply("pong");
  EXPECT_EQ(&check_reply(fine), &fine);  // ok passes through
}

// --- framing over a real socket pair --------------------------------------

TEST(ServerSocket, FramesRoundTripAndCleanCloseIsNullopt) {
  Listener listener("127.0.0.1", 0);
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("ping"));
  doc.set("n", JsonValue::number(u64{7}));
  std::thread peer([&] {
    Socket c = connect_to("127.0.0.1", listener.port());
    send_frame(c, doc);
    // destructor closes: the server side must see a clean end-of-stream
  });
  auto accepted = listener.accept(2'000);
  ASSERT_TRUE(accepted.has_value());
  const auto frame = recv_frame(*accepted, 2'000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->dump(0), doc.dump(0));
  EXPECT_FALSE(recv_frame(*accepted, 2'000).has_value());
  peer.join();
}

TEST(ServerSocket, OversizedPrefixIsProtocolError) {
  Listener listener("127.0.0.1", 0);
  std::thread peer([&] {
    Socket c = connect_to("127.0.0.1", listener.port());
    const u8 huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2GB "frame"
    c.send_all(huge, sizeof(huge));
  });
  auto accepted = listener.accept(2'000);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(kind_of([&] { recv_frame(*accepted, 2'000); }),
            ServerErrorKind::kProtocol);
  peer.join();
}

// --- registry --------------------------------------------------------------

TEST(ServerRegistry, UnknownNameIsNotFoundAndGarbageIsRejected) {
  TraceRegistry reg;
  EXPECT_EQ(kind_of([&] { reg.path_of("nope"); }), ServerErrorKind::kNotFound);
  EXPECT_EQ(kind_of([&] { reg.add("bad", "/does/not/exist.aeept"); }),
            ServerErrorKind::kIo);
  const std::string path = capture_gzip("registry", 5'000);
  reg.add("gzip", path);
  EXPECT_EQ(reg.path_of("gzip"), path);
  EXPECT_EQ(reg.names(), std::vector<std::string>{"gzip"});
  std::remove(path.c_str());
}

// --- the server end to end -------------------------------------------------

JobSpec small_exec_job(u64 instructions = 30'000) {
  JobSpec spec;
  spec.benchmark = "gzip";
  spec.instructions = instructions;
  spec.warmup_instructions = 5'000;
  return spec;
}

/// An exec job long enough to keep a worker busy well past a burst of
/// follow-up submits.
constexpr u64 kOccupyingInstructions = 3'000'000;

/// Wait until the server's one worker has taken the occupying job off the
/// queue, so what is submitted next queues behind it.
void wait_until_occupied(JobServer& served) {
  for (int i = 0; i < 30'000; ++i) {
    const ServerStats s = served.stats();
    if (s.running == 1 && s.queued == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "the occupying job never started";
}

TEST(Wire, ObjectOfDistinctKeysAtTheFrameLimitParsesWithoutQuadraticCost) {
  // json_parse runs on every frame before any auth or field check, so a
  // frame-sized object of tiny distinct keys must not cost n^2 compares
  // (~100K keys here; quadratic key handling took ~30 s).
  std::string text = "{";
  for (u64 i = 0; text.size() + 32 < kMaxFrameBytes; ++i) {
    text += '"';
    text += std::to_string(i);
    text += "\":0,";
  }
  text += "\"end\":1}";
  const auto t0 = std::chrono::steady_clock::now();
  const auto v = json_parse(text);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->members().size(), 90'000u);
  EXPECT_EQ(v->get_u64("end"), 1u);
  EXPECT_LT(seconds, 5.0);
}

TEST(JobServer, PingSubmitStatusResultLifecycle) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  const JsonValue pong = client.ping();
  EXPECT_EQ(pong.get_string("type"), "pong");
  EXPECT_EQ(pong.get_u64("protocol"), 1u);

  const u64 id = client.submit(small_exec_job());
  EXPECT_GT(id, 0u);
  const JsonValue result = client.result(id, /*wait=*/true, 60'000);
  EXPECT_TRUE(result.get_bool("ready"));
  EXPECT_EQ(result.get_string("state"), "done");
  const JsonValue* metrics = result.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->get_u64("committed"), 0u);
  EXPECT_GT(metrics->get_double("ipc"), 0.0);

  const JsonValue status = client.status(id);
  EXPECT_EQ(status.get_string("state"), "done");

  EXPECT_EQ(kind_of([&] { client.status(id + 1000); }),
            ServerErrorKind::kNotFound);

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  served.drain();
}

TEST(JobServer, ResubmittedJobIsServedFromTheResultStore) {
  const std::string store_dir =
      testing::TempDir() + "aeep_server_test_store";
  std::filesystem::remove_all(store_dir);

  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.store_dir = store_dir;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  const u64 first = client.submit(small_exec_job());
  const JsonValue cold = client.result(first, /*wait=*/true, 60'000);
  EXPECT_EQ(cold.get_string("state"), "done");
  // A job is answered only after its result is in the store.
  ASSERT_EQ(served.stats().cache_stores, 1u);

  // Same spec again: answered from the store, born terminal — no queue
  // time, no worker dispatch, and bit-identical metrics.
  const u64 second = client.submit(small_exec_job());
  EXPECT_NE(second, first);
  const JsonValue warm = client.result(second, /*wait=*/false);
  EXPECT_TRUE(warm.get_bool("ready"));
  EXPECT_EQ(warm.get_string("state"), "done");
  ASSERT_NE(warm.find("metrics"), nullptr);
  ASSERT_NE(cold.find("metrics"), nullptr);
  EXPECT_EQ(warm.find("metrics")->dump(0), cold.find("metrics")->dump(0));
  ASSERT_NE(warm.find("result"), nullptr);
  ASSERT_NE(cold.find("result"), nullptr);
  EXPECT_EQ(warm.find("result")->dump(0), cold.find("result")->dump(0));

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_stores, 1u);
  EXPECT_EQ(stats.completed, 2u);  // a cache hit still counts as completed

  // The wire stats reply exposes the same counters plus the store gauges.
  const JsonValue wire = client.stats();
  EXPECT_EQ(wire.get_u64("cache_hits"), 1u);
  EXPECT_EQ(wire.get_u64("cache_misses"), 1u);
  EXPECT_EQ(wire.get_u64("store_entries"), 1u);
  EXPECT_GT(wire.get_u64("store_bytes"), 0u);
  served.drain();
}

TEST(JobServer, FullQueueAnswersBusyInsteadOfQueueingUnboundedly) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // One slow job to occupy the single worker...
  std::vector<u64> accepted;
  accepted.push_back(client.submit(small_exec_job(kOccupyingInstructions)));
  wait_until_occupied(served);
  // ...then flood: with capacity 1, at most one more fits; the rest must
  // be answered `busy` — an explicit reply, not a hang or a drop.
  u64 busy = 0;
  for (int i = 0; i < 4; ++i) {
    try {
      accepted.push_back(client.submit(small_exec_job()));
    } catch (const ServerError& e) {
      ASSERT_EQ(e.kind(), ServerErrorKind::kBusy);
      ++busy;
    }
  }
  EXPECT_GE(busy, 3u);  // >= 3 of the 4 flooded submits bounced
  EXPECT_EQ(served.stats().busy_rejected, busy);
  for (const u64 id : accepted) {
    const JsonValue r = client.result(id, /*wait=*/true, 120'000);
    EXPECT_TRUE(r.get_bool("ready"));
  }
  served.drain();
}

TEST(JobServer, QueuedJobPastDeadlineTimesOutWithoutRunning) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  client.submit(small_exec_job(kOccupyingInstructions));
  wait_until_occupied(served);
  JobSpec hurried = small_exec_job();
  hurried.timeout_ms = 1;  // will expire while queued behind the slow job
  const u64 id = client.submit(hurried);
  EXPECT_EQ(kind_of([&] { client.result(id, /*wait=*/true, 120'000); }),
            ServerErrorKind::kTimeout);
  EXPECT_GE(served.stats().timed_out, 1u);
  served.drain();
}

TEST(JobServer, StoreInsertFailureStillAnswersTheJob) {
  const std::string store_dir =
      testing::TempDir() + "aeep_server_test_store_full";
  std::filesystem::remove_all(store_dir);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.store_dir = store_dir;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // Cap file sizes a few bytes past the fresh segment, so the insert's
  // flush fails (EFBIG, with SIGXFSZ ignored so the process lives on).
  // The cap holds through drain(), which joins the worker: an insert error
  // escaping it would end the process inside this test. ctest runs every
  // case in its own process; the cap touches no other.
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(
      std::filesystem::file_size(store::ResultStore::segment_path(store_dir)) +
      4);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const JsonValue reply = client.run(small_exec_job());
  const std::string pong = client.ping().get_string("type");
  served.drain();
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);

  // The store is only a cache: the job is still answered with its result.
  EXPECT_EQ(reply.get_string("state"), "done");
  EXPECT_NE(reply.find("metrics"), nullptr);
  EXPECT_EQ(pong, "pong");
  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cache_stores, 0u);
}

TEST(JobServer, IdleWorkerTakesANewJobWhileAnotherRuns) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 2;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  client.submit(small_exec_job(kOccupyingInstructions));
  wait_until_occupied(served);
  // The second worker is idle, so it takes the next job at once instead of
  // leaving it queued until the first job finishes.
  client.submit(small_exec_job(kOccupyingInstructions));
  bool both_running = false;
  for (int i = 0; i < 30'000 && !both_running; ++i) {
    const ServerStats s = served.stats();
    ASSERT_EQ(s.completed + s.failed + s.timed_out, 0u)
        << "a job finished before both were running";
    both_running = s.running == 2;
    if (!both_running)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(both_running);
  served.drain();
}

TEST(JobServer, UnregisteredTraceNameIsNotFoundAtSubmitTime) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.frontend = sim::Frontend::kTrace;  // no such trace registered
  EXPECT_EQ(kind_of([&] { client.submit(spec); }),
            ServerErrorKind::kNotFound);
  served.drain();
}

TEST(JobServer, DrainFinishesAcceptedWorkAndRejectsNewSubmits) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  const u64 id = client.submit(small_exec_job());
  served.request_drain();
  EXPECT_TRUE(served.draining());
  EXPECT_EQ(kind_of([&] { client.submit(small_exec_job()); }),
            ServerErrorKind::kShutdown);
  // The job accepted before the drain still completes and is collectable
  // while the server winds down.
  const JsonValue r = client.result(id, /*wait=*/true, 120'000);
  EXPECT_TRUE(r.get_bool("ready"));
  EXPECT_EQ(served.drain(), 1u);
  EXPECT_EQ(served.stats().shutdown_rejected, 1u);
}

TEST(JobServer, TraceReplayThroughServerIsBitExactWithDirectReplay) {
  const std::string path = capture_gzip("equivalence");

  sim::ExperimentOptions ro;
  ro.instructions = 30'000;
  ro.warmup_instructions = 5'000;
  ro.frontend = sim::Frontend::kTrace;
  ro.trace_path = path;
  const sim::RunResult direct = sim::run_benchmark("gzip", ro);

  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.registry().add("gzip", path);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.frontend = sim::Frontend::kTrace;
  const JsonValue reply = client.run(spec);
  ASSERT_TRUE(reply.get_bool("ready"));
  const JsonValue* metrics = reply.find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Same canonical rendering on both sides — byte equality, no tolerance.
  EXPECT_EQ(metrics->dump(0), sim::run_result_json(direct).dump(0));
  // And the full result travels too, decoding to the direct run's RunResult.
  const JsonValue* doc = reply.find("result");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(sim::run_result_from_json(*doc), direct);
  served.drain();
  std::remove(path.c_str());
}

TEST(JobServer, TokenGateRefusesEverythingButPing) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.token = "sekrit";
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // Ping stays open so discovery works before credentials, and advertises
  // that everything else is gated.
  const JsonValue pong = client.ping();
  EXPECT_EQ(pong.get_string("type"), "pong");
  EXPECT_TRUE(pong.get_bool("auth_required"));

  // No token and a wrong token both get the typed refusal.
  EXPECT_EQ(kind_of([&] { client.metrics(); }),
            ServerErrorKind::kUnauthorized);
  client.set_token("wrong");
  EXPECT_EQ(kind_of([&] { client.submit(small_exec_job()); }),
            ServerErrorKind::kUnauthorized);

  // The right token unlocks the full protocol.
  client.set_token("sekrit");
  const u64 id = client.submit(small_exec_job());
  const JsonValue result = client.result(id, /*wait=*/true, 60'000);
  EXPECT_TRUE(result.get_bool("ready"));
  EXPECT_FALSE(client.metrics().find("metrics") == nullptr);

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.unauthorized, 2u);
  EXPECT_EQ(stats.completed, 1u);
  served.drain();
}

TEST(JobServer, MetricsEndpointStageCountsMatchTheWorkDone) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // The registry is process-global (other tests in this binary have
  // already recorded into it), so assert on the interval this test adds,
  // not on absolute counts.
  const auto stage = [&](const JsonValue& reply, const char* name) {
    const JsonValue* hists = reply.find("metrics")->find("histograms");
    const JsonValue* doc = hists == nullptr ? nullptr : hists->find(name);
    if (doc == nullptr) return metrics::HistogramSnapshot{};
    const auto snap = metrics::HistogramSnapshot::from_json(*doc);
    return snap.value_or(metrics::HistogramSnapshot{});
  };
  const JsonValue before = client.metrics();
  EXPECT_GE(before.get_double("uptime_ms"), 0.0);

  constexpr u64 kJobs = 3;
  std::vector<u64> ids;
  for (u64 i = 0; i < kJobs; ++i) {
    JobSpec spec = small_exec_job();
    spec.seed = 100 + i;
    ids.push_back(client.submit(spec));
  }
  for (const u64 id : ids) client.result(id, /*wait=*/true, 60'000);
  const JsonValue after = client.metrics();

  // Every job passed through the queue exactly once, was replayed exactly
  // once, and closed out exactly one wall-clock span.
  for (const char* name :
       {"server.queue_wait_us", "server.replay_us", "server.job_wall_us"}) {
    const auto delta =
        stage(after, name).diff_since(stage(before, name));
    ASSERT_TRUE(delta.has_value()) << name;
    EXPECT_EQ(delta->count, kJobs) << name;
  }
  served.drain();
}

TEST(JobServer, FailedJobSurfacesAsTypedInternalError) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.benchmark = "no_such_benchmark";
  const u64 id = client.submit(spec);  // accepted: validated at run time
  EXPECT_EQ(kind_of([&] { client.result(id, /*wait=*/true, 60'000); }),
            ServerErrorKind::kInternal);
  EXPECT_EQ(served.stats().failed, 1u);
  served.drain();
}

}  // namespace
}  // namespace aeep::server
