// aeep_served's engine: a TCP job server that accepts experiment /
// trace-replay requests as length-prefixed JSON frames and batches them
// onto one shared sim::SweepRunner pool.
//
// Threading model (three kinds of threads, one lock):
//  - the accept loop polls the listener with a short timeout, spawns one
//    handler thread per connection, and bounces connections beyond
//    max_connections with a kBusy frame before closing;
//  - handler threads speak the request/reply protocol; a submit enqueues
//    into a *bounded* lock-free MPMC ring (common/mpmc_queue.hpp) after
//    reserving a slot on an atomic depth counter — when full the client
//    gets an explicit kBusy reply (backpressure, 429-style) instead of an
//    ever-growing backlog. The mutex guards only the cold job-table map;
//    the enqueue itself never takes it;
//  - one dispatcher thread drains the ring in batches of <= max_batch
//    jobs through SweepRunner::run(), completing each job from the
//    progress callback as it finishes (not at batch end).
// Per-job wall-clock deadlines are enforced twice: a job still queued past
// its deadline is failed as kTimeout without running, and a job whose
// batch finishes late has its result discarded as kTimeout (SweepRunner
// cannot cancel a running simulation, so late != free).
// Graceful shutdown: request_drain() stops new submits (kShutdown
// replies), lets queued + running jobs finish, then close() tears down
// connections — the SIGTERM path in aeep_served.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/clock.hpp"
#include "metrics/registry.hpp"
#include "server/access_log.hpp"
#include "server/registry.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;                      ///< 0 = kernel-assigned (see port())
  unsigned workers = 0;              ///< SweepRunner threads; 0 = hw count
  std::size_t queue_capacity = 64;   ///< queued (not yet running) jobs
  std::size_t max_batch = 8;         ///< jobs dispatched per SweepRunner run
  std::size_t max_connections = 64;  ///< concurrent handler threads
  u64 default_timeout_ms = 120'000;  ///< per-job wall clock (0 = none)
  std::size_t result_retention = 4096;  ///< finished jobs kept queryable
  std::string trace_dir;             ///< scanned into the trace registry
  std::string access_log_path;       ///< empty = no access log; "-" = stderr
  u64 access_log_max_bytes = 0;      ///< rotate to .1 past this; 0 = never
  /// Result-store directory (store::SweepCache). Empty = no cache. A
  /// submit whose job digest hits the store is answered terminal-kDone
  /// without ever touching the sweep pool.
  std::string store_dir;
  /// Write a "metrics" access-log line (per-stage histogram summary) every
  /// N terminal jobs, and once more at drain. 0 = only at drain.
  u64 metrics_log_every = 256;
  /// Shared secret. When set, every request except "ping" must carry a
  /// matching "token" field or it is refused with kUnauthorized. Ping stays
  /// open so liveness probes and port scans don't need the secret.
  std::string token;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kTimeout };
const char* to_string(JobState s);

/// Counter snapshot for the "stats" request and the final drain summary.
struct ServerStats {
  u64 connections_accepted = 0;
  u64 connections_rejected = 0;  ///< bounced at max_connections
  u64 requests = 0;
  u64 submitted = 0;
  u64 busy_rejected = 0;      ///< submits bounced by the full queue
  u64 shutdown_rejected = 0;  ///< submits bounced while draining
  u64 completed = 0;
  u64 failed = 0;
  u64 timed_out = 0;
  u64 batches = 0;            ///< SweepRunner dispatches
  u64 cache_hits = 0;         ///< submits answered straight from the store
  u64 cache_misses = 0;       ///< submits that had to run (store enabled)
  u64 cache_stores = 0;       ///< completed results written to the store
  u64 unauthorized = 0;       ///< requests bounced by token auth
  std::size_t queued = 0;     ///< gauge at snapshot time
  std::size_t running = 0;    ///< gauge at snapshot time
};

class JobServer {
 public:
  explicit JobServer(ServerConfig config);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Bind + spawn the accept and dispatcher threads. Throws
  /// ServerError(kIo) when the port is taken or trace_dir unreadable.
  void start();

  /// The actually bound port (resolves config.port == 0).
  u16 port() const;

  /// Registry access for registering traces before start().
  TraceRegistry& registry() { return registry_; }

  /// Stop taking new jobs; existing queue keeps draining. Idempotent,
  /// non-blocking, safe from a signal-notified context (not the handler
  /// itself — aeep_served sets a flag in the handler and calls this from
  /// the main loop).
  void request_drain();

  /// request_drain(), wait for queued + running jobs to finish, answer
  /// each connection's in-flight request, then tear everything down.
  /// Returns the number of jobs completed over the server's lifetime.
  u64 drain();

  /// Immediate teardown: queued jobs fail with kShutdown, then close.
  void stop();

  bool draining() const { return draining_.load(); }

  ServerStats stats() const;
  void reset_stats();

 private:
  struct Job {
    u64 id = 0;
    JobSpec spec{};  ///< trace_path already resolved
    JobState state = JobState::kQueued;
    ServerErrorKind error_kind = ServerErrorKind::kInternal;
    std::string error;  ///< kFailed / kTimeout detail
    sim::RunResult result{};
    metrics::TimePoint submitted_at{};
    metrics::TimePoint deadline{};
    bool has_deadline = false;
    double wall_ms = 0.0;  ///< submit -> terminal
  };

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void dispatch_loop();
  void handle_connection(Socket sock, u64 conn_id, std::string peer);
  JsonValue handle_request(const JsonValue& req, u64 conn_id);

  JsonValue handle_submit(const JsonValue& req);
  JsonValue handle_status(const JsonValue& req);
  JsonValue handle_result(const JsonValue& req);
  JsonValue handle_run(const JsonValue& req);
  JsonValue handle_stats() const;
  JsonValue handle_traces() const;
  JsonValue handle_health() const;
  JsonValue handle_drain();
  JsonValue handle_metrics() const;

  /// One "metrics" access-log line: count/p50/p99/max for every "server."
  /// histogram. Reads only the registry and the log — both leaf locks — so
  /// it is safe with or without mutex_ held.
  void log_metrics_summary(const char* reason);

  /// Validate + enqueue; returns the new job id. Throws ServerError
  /// (kBusy, kShutdown, kNotFound, kBadRequest). Caller holds no lock.
  u64 submit_job(const JsonValue& req);

  /// Block until `id` is terminal, the server closes, or `wait_ms`
  /// elapses. Returns true when terminal.
  bool wait_for_job(u64 id, u64 wait_ms);

  /// Reply for a terminal (or not) job.
  JsonValue result_reply_locked(const Job& job) const AEEP_REQUIRES(mutex_);
  void finish_job_locked(Job& job, JobState state, ServerErrorKind kind,
                         const std::string& error) AEEP_REQUIRES(mutex_);
  void enforce_retention_locked() AEEP_REQUIRES(mutex_);

  ServerConfig config_;
  TraceRegistry registry_;
  AccessLog log_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<sim::SweepRunner> runner_;
  /// Created by start() when config.store_dir is set. Internally locked;
  /// never touched while holding mutex_ (cache lookups happen before the
  /// job table is locked, inserts after it is released).
  std::unique_ptr<store::SweepCache> cache_;

  mutable aeep::Mutex mutex_;
  aeep::CondVar cv_dispatch_;  ///< queue gained work / draining
  aeep::CondVar cv_done_;      ///< some job reached terminal state
  std::map<u64, Job> jobs_ AEEP_GUARDED_BY(mutex_);
  /// FIFO of queued job ids. Lock-free: submits push and the dispatcher
  /// pops without touching mutex_. Ring capacity is queue_capacity rounded
  /// up to a power of two; the *exact* configured bound is enforced by
  /// queue_depth_ (reserve-then-push), so a capacity-1 server still bounces
  /// the second submit.
  std::unique_ptr<MpmcQueue<u64>> queue_;
  std::atomic<std::size_t> queue_depth_{0};
  /// retention ring, oldest first
  std::vector<u64> finished_order_ AEEP_GUARDED_BY(mutex_);
  u64 next_job_id_ AEEP_GUARDED_BY(mutex_) = 1;
  std::size_t running_count_ AEEP_GUARDED_BY(mutex_) = 0;
  ServerStats stats_ AEEP_GUARDED_BY(mutex_){};
  /// terminal jobs since the last periodic metrics summary
  u64 metrics_log_at_ AEEP_GUARDED_BY(mutex_) = 0;

  /// Per-stage telemetry, resolved once here (registry references have
  /// stable addresses). record() is wait-free, so these are safe under
  /// mutex_ and from every handler thread.
  metrics::Histogram& h_queue_wait_;
  metrics::Histogram& h_replay_;
  metrics::Histogram& h_encode_;
  metrics::Histogram& h_store_lookup_;
  metrics::Histogram& h_request_;
  metrics::Histogram& h_job_wall_;
  metrics::Counter& c_cache_hits_;
  metrics::Counter& c_cache_misses_;

  std::atomic<bool> draining_{false};  ///< no new submits
  std::atomic<bool> closing_{false};   ///< connections wind down
  std::atomic<bool> started_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  aeep::Mutex conn_mutex_;
  std::list<Connection> connections_ AEEP_GUARDED_BY(conn_mutex_);
  std::size_t active_connections_ AEEP_GUARDED_BY(conn_mutex_) = 0;
  u64 next_conn_id_ AEEP_GUARDED_BY(conn_mutex_) = 1;
  metrics::TimePoint started_at_{};
};

}  // namespace aeep::server
