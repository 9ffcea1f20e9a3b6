#include "server/server.hpp"

#include <exception>
#include <utility>

#include "metrics/timer.hpp"
#include "sim/result_json.hpp"

namespace aeep::server {

namespace {

bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kTimeout;
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kTimeout: return "timeout";
  }
  return "?";
}

JobServer::JobServer(ServerConfig config)
    : config_(std::move(config)),
      h_queue_wait_(
          metrics::Registry::instance().histogram("server.queue_wait_us")),
      h_replay_(metrics::Registry::instance().histogram("server.replay_us")),
      h_encode_(metrics::Registry::instance().histogram("server.encode_us")),
      h_request_(metrics::Registry::instance().histogram("server.request_us")),
      h_job_wall_(
          metrics::Registry::instance().histogram("server.job_wall_us")) {
  if (config_.workers == 0) config_.workers = sim::SweepRunner::default_jobs();
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.max_connections == 0) config_.max_connections = 1;
  if (config_.result_retention == 0) config_.result_retention = 1;
}

JobServer::~JobServer() { stop(); }

void JobServer::start() {
  if (started_.exchange(true)) return;
  if (!config_.trace_dir.empty()) registry_.scan_directory(config_.trace_dir);
  if (!config_.access_log_path.empty())
    log_.open(config_.access_log_path, config_.access_log_max_bytes);
  if (!config_.store_dir.empty())
    cache_ = std::make_unique<store::SweepCache>(
        store::StoreConfig{config_.store_dir});
  listener_ = std::make_unique<Listener>(config_.host, config_.port);
  started_at_ = metrics::now();
  {
    JsonValue f = JsonValue::object();
    f.set("host", JsonValue::string(config_.host));
    f.set("port", JsonValue::number(u64{listener_->port()}));
    f.set("workers", JsonValue::number(u64{config_.workers}));
    f.set("queue_capacity", JsonValue::number(u64{config_.queue_capacity}));
    f.set("traces", JsonValue::number(u64{registry_.size()}));
    if (cache_) f.set("store", JsonValue::string(config_.store_dir));
    log_.write("listening", std::move(f));
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (unsigned w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

u16 JobServer::port() const {
  return listener_ ? listener_->port() : config_.port;
}

void JobServer::request_drain() {
  {
    // Flipping the flag under the lock keeps a worker from checking it and
    // then sleeping across the notify.
    const MutexLock lock(mutex_);
    if (draining_.exchange(true)) return;
  }
  cv_dispatch_.notify_all();
  log_.write("drain_begin", JsonValue::object());
}

u64 JobServer::drain() {
  if (!started_.load()) return 0;
  request_drain();
  for (auto& w : workers_) w.join();
  workers_.clear();
  log_metrics_summary("drain");
  u64 completed = 0;
  {
    const MutexLock lock(mutex_);
    completed = stats_.completed;
    JsonValue f = JsonValue::object();
    f.set("completed", JsonValue::number(stats_.completed));
    f.set("failed", JsonValue::number(stats_.failed));
    f.set("timed_out", JsonValue::number(stats_.timed_out));
    log_.write("drain_complete", std::move(f));
  }
  stop();
  return completed;
}

void JobServer::stop() {
  if (!started_.load()) return;
  draining_.store(true);
  closing_.store(true);
  {
    const MutexLock lock(mutex_);
    // Anything still queued will never run; fail it loudly rather than
    // leaving a waiting client to time out.
    for (auto& [jid, job] : jobs_) {
      if (job.state == JobState::kQueued)
        finish_job_locked(job, JobState::kFailed, ServerErrorKind::kShutdown,
                          "server shut down before the job ran");
    }
    queued_count_ = 0;
  }
  cv_dispatch_.notify_all();
  cv_done_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Splice the handler list out first: joining while holding conn_mutex_
    // would deadlock with a handler's exit path, which takes conn_mutex_ to
    // decrement the active count. Node addresses survive the splice, so
    // each thread's `entry` reference stays valid until its join.
    std::list<Connection> doomed;
    {
      const MutexLock lock(conn_mutex_);
      doomed.splice(doomed.begin(), connections_);
    }
    for (auto& conn : doomed)
      if (conn.thread.joinable()) conn.thread.join();
    const MutexLock lock(conn_mutex_);
    active_connections_ = 0;
  }
  if (listener_) listener_->close();
  log_.write("closed", JsonValue::object());
  log_.close();
  started_.store(false);
}

ServerStats JobServer::stats() const {
  const MutexLock lock(mutex_);
  ServerStats s = stats_;
  s.queued = queued_count_;
  s.running = running_count_;
  return s;
}

void JobServer::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = ServerStats{};
}

// --- workers ---------------------------------------------------------------

void JobServer::worker_loop() {
  while (true) {
    sim::SweepJob cell;
    u64 id = 0;
    bool has_deadline = false;
    metrics::TimePoint deadline{};
    {
      const MutexLock lock(mutex_);
      while (!closing_.load() && !draining_.load() && queued_count_ == 0)
        cv_dispatch_.wait(mutex_);
      // Closing, or draining with nothing left to run.
      if (closing_.load() || queued_count_ == 0) return;

      // Ids are handed out in submit order, so the first queued job at or
      // after the cursor is the oldest. Store hits are born terminal and
      // running jobs are already taken; both are skipped.
      auto it = jobs_.lower_bound(next_queued_);
      while (it->second.state != JobState::kQueued) ++it;
      next_queued_ = it->first + 1;
      --queued_count_;
      Job& job = it->second;
      const auto now = metrics::now();
      if (job.has_deadline && now > job.deadline) {
        finish_job_locked(job, JobState::kTimeout, ServerErrorKind::kTimeout,
                          "deadline expired while queued");
        continue;
      }
      job.state = JobState::kRunning;
      ++running_count_;
      h_queue_wait_.record(metrics::us_between(job.submitted_at, now));
      id = job.id;
      has_deadline = job.has_deadline;
      deadline = job.deadline;
      cell.benchmark = job.spec.benchmark;
      cell.options = job.spec;
    }

    sim::SweepOutcome outcome = sim::run_cell(cell);
    h_replay_.record(static_cast<u64>(outcome.wall_seconds * 1e6));
    const bool late = has_deadline && metrics::now() > deadline;

    // Store before reply: the insert runs unlocked (the cache has its own
    // lock and the two never nest, see submit_job) but before the job is
    // answered. The store is only a cache, so a failed insert is logged
    // and the job is still answered with its result.
    bool stored = false;
    if (cache_ && outcome.ok() && !late) {
      JsonValue f = JsonValue::object();
      f.set("job", JsonValue::number(id));
      f.set("benchmark", JsonValue::string(cell.benchmark));
      try {
        cache_->insert(cell, outcome.result);
        stored = true;
        log_.write("cache_store", std::move(f));
      } catch (const std::exception& e) {
        f.set("error", JsonValue::string(e.what()));
        log_.write("cache_store_failed", std::move(f));
      }
    }

    const MutexLock lock(mutex_);
    if (stored) ++stats_.cache_stores;
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    Job& job = it->second;
    if (!outcome.ok()) {
      finish_job_locked(job, JobState::kFailed, ServerErrorKind::kInternal,
                        outcome.error);
    } else if (late) {
      finish_job_locked(job, JobState::kTimeout, ServerErrorKind::kTimeout,
                        "completed after its deadline; result discarded");
    } else {
      job.result = std::move(outcome.result);
      finish_job_locked(job, JobState::kDone, ServerErrorKind::kInternal, "");
    }
  }
}

void JobServer::finish_job_locked(Job& job, JobState state,
                                  ServerErrorKind kind,
                                  const std::string& error) {
  if (is_terminal(job.state)) return;
  if (job.state == JobState::kRunning && running_count_ > 0) --running_count_;
  job.state = state;
  job.error_kind = kind;
  job.error = error;
  job.wall_ms = metrics::ms_since(job.submitted_at);
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      h_job_wall_.record(static_cast<u64>(job.wall_ms * 1000.0));
      break;
    case JobState::kFailed: ++stats_.failed; break;
    case JobState::kTimeout: ++stats_.timed_out; break;
    default: break;
  }
  if (config_.metrics_log_every != 0 &&
      ++metrics_log_at_ >= config_.metrics_log_every) {
    metrics_log_at_ = 0;
    log_metrics_summary("periodic");
  }
  finished_order_.push_back(job.id);
  enforce_retention_locked();
  cv_done_.notify_all();
  JsonValue f = JsonValue::object();
  f.set("job", JsonValue::number(job.id));
  f.set("benchmark", JsonValue::string(job.spec.benchmark));
  f.set("state", JsonValue::string(to_string(state)));
  f.set("wall_ms", JsonValue::number(job.wall_ms));
  if (!error.empty()) f.set("error", JsonValue::string(error));
  log_.write("job", std::move(f));
}

void JobServer::enforce_retention_locked() {
  while (finished_order_.size() > config_.result_retention) {
    const u64 victim = finished_order_.front();
    finished_order_.erase(finished_order_.begin());
    const auto it = jobs_.find(victim);
    if (it != jobs_.end() && is_terminal(it->second.state)) jobs_.erase(it);
  }
}

// --- connections -----------------------------------------------------------

void JobServer::accept_loop() {
  while (!closing_.load()) {
    std::string peer;
    std::optional<Socket> sock;
    try {
      sock = listener_->accept(200, &peer);
    } catch (const ServerError&) {
      if (closing_.load()) break;
      continue;
    }

    // Reap handler threads that have finished since the last pass.
    {
      const MutexLock lock(conn_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done.load()) {
          it->thread.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!sock) continue;

    u64 conn_id = 0;
    bool reject = false;
    {
      const MutexLock lock(conn_mutex_);
      if (active_connections_ >= config_.max_connections) reject = true;
      else {
        ++active_connections_;
        conn_id = next_conn_id_++;
      }
    }
    if (reject) {
      {
        const MutexLock lock(mutex_);
        ++stats_.connections_rejected;
      }
      try {
        send_frame(*sock, error_reply(ServerErrorKind::kBusy,
                                      "connection limit reached"));
      } catch (const ServerError&) {
      }
      JsonValue f = JsonValue::object();
      f.set("peer", JsonValue::string(peer));
      log_.write("rejected", std::move(f));
      continue;
    }

    {
      const MutexLock lock(mutex_);
      ++stats_.connections_accepted;
    }
    const MutexLock lock(conn_mutex_);
    connections_.emplace_back();
    Connection& entry = connections_.back();
    entry.thread = std::thread(
        [this, &entry, conn_id, peer, s = std::move(*sock)]() mutable {
          handle_connection(std::move(s), conn_id, peer);
          {
            const MutexLock g(conn_mutex_);
            if (active_connections_ > 0) --active_connections_;
          }
          entry.done.store(true);  // last: the reaper may now join us
        });
  }
}

void JobServer::handle_connection(Socket sock, u64 conn_id,
                                  std::string peer) {
  {
    JsonValue f = JsonValue::object();
    f.set("conn", JsonValue::number(conn_id));
    f.set("peer", JsonValue::string(peer));
    log_.write("open", std::move(f));
  }
  u64 served = 0;
  std::string close_reason = "eof";
  try {
    while (!closing_.load()) {
      if (!sock.wait_readable(200)) continue;
      const auto req = recv_frame(sock);
      if (!req) break;  // peer hung up cleanly
      const auto t0 = metrics::now();
      const JsonValue reply = handle_request(*req, conn_id);
      h_request_.record(metrics::us_since(t0));
      {
        const metrics::ScopedTimer enc(h_encode_);
        send_frame(sock, reply);
      }
      ++served;
      JsonValue f = JsonValue::object();
      f.set("conn", JsonValue::number(conn_id));
      f.set("type", JsonValue::string(req->get_string("type", "?")));
      f.set("ok", JsonValue::boolean(reply.get_bool("ok", false)));
      if (const JsonValue* e = reply.find("error")) f.set("error", *e);
      if (const JsonValue* j = reply.find("job_id")) f.set("job", *j);
      f.set("dur_ms", JsonValue::number(metrics::ms_since(t0)));
      log_.write("request", std::move(f));
    }
    if (closing_.load()) close_reason = "server_closing";
  } catch (const ServerError& e) {
    close_reason = std::string("error: ") + e.what();
    try {
      send_frame(sock, error_reply(e.kind(), e.what()));
    } catch (const ServerError&) {
    }
  } catch (const std::exception& e) {
    close_reason = std::string("error: ") + e.what();
  }
  JsonValue f = JsonValue::object();
  f.set("conn", JsonValue::number(conn_id));
  f.set("requests", JsonValue::number(served));
  f.set("reason", JsonValue::string(close_reason));
  log_.write("close", std::move(f));
}

// --- request handling ------------------------------------------------------

JsonValue JobServer::handle_request(const JsonValue& req, u64 conn_id) {
  (void)conn_id;
  {
    const MutexLock lock(mutex_);
    ++stats_.requests;
  }
  const std::string type = req.get_string("type", "");
  try {
    if (type == "ping") {
      JsonValue r = ok_reply("pong");
      r.set("server", JsonValue::string("aeep_served"));
      r.set("protocol", JsonValue::number(u64{1}));
      r.set("auth_required", JsonValue::boolean(!config_.token.empty()));
      return r;
    }
    if (!config_.token.empty() &&
        req.get_string("token", "") != config_.token) {
      {
        const MutexLock lock(mutex_);
        ++stats_.unauthorized;
      }
      throw ServerError(ServerErrorKind::kUnauthorized,
                        "request requires a valid token (server started "
                        "with --token)");
    }
    if (type == "submit") return handle_submit(req);
    if (type == "status") return handle_status(req);
    if (type == "result") return handle_result(req);
    if (type == "run") return handle_run(req);
    if (type == "stats") return handle_stats();
    if (type == "metrics") return handle_metrics();
    if (type == "traces") return handle_traces();
    if (type == "drain") return handle_drain();
    throw ServerError(ServerErrorKind::kBadRequest,
                      "unknown request type '" + type + "'");
  } catch (const ServerError& e) {
    return error_reply(e.kind(), e.what());
  } catch (const std::exception& e) {
    return error_reply(ServerErrorKind::kInternal, e.what());
  }
}

u64 JobServer::submit_job(const JsonValue& req) {
  const JsonValue* jv = req.find("job");
  JobSpec spec = jv ? job_spec_from_json(*jv) : JobSpec{};
  if (spec.frontend == sim::Frontend::kTrace)
    spec.trace_path = registry_.path_of(spec.trace_name());

  // Consult the result store before the queue: a hit is born terminal and
  // never reaches a worker. The cache lock is taken and released here,
  // before mutex_ — the two are never held together in this order or the
  // other (inserts in worker_loop also run unlocked).
  if (cache_) {
    const sim::SweepJob probe{spec.benchmark, spec, {}};
    if (std::optional<sim::RunResult> hit = cache_->lookup(probe)) {
      u64 id = 0;
      {
        const MutexLock lock(mutex_);
        if (draining_.load()) {
          ++stats_.shutdown_rejected;
          throw ServerError(ServerErrorKind::kShutdown,
                            "server is draining; not accepting new jobs");
        }
        id = next_job_id_++;
        Job job;
        job.id = id;
        job.spec = std::move(spec);
        job.submitted_at = metrics::now();
        job.result = std::move(*hit);
        const auto [it, inserted] = jobs_.emplace(id, std::move(job));
        (void)inserted;
        ++stats_.submitted;
        ++stats_.cache_hits;
        finish_job_locked(it->second, JobState::kDone,
                          ServerErrorKind::kInternal, "");
      }
      JsonValue f = JsonValue::object();
      f.set("job", JsonValue::number(id));
      f.set("benchmark", JsonValue::string(probe.benchmark));
      log_.write("cache_hit", std::move(f));
      return id;
    }
    {
      const MutexLock lock(mutex_);
      ++stats_.cache_misses;
    }
    JsonValue f = JsonValue::object();
    f.set("benchmark", JsonValue::string(probe.benchmark));
    log_.write("cache_miss", std::move(f));
  }

  u64 id = 0;
  {
    const MutexLock lock(mutex_);
    if (queued_count_ >= config_.queue_capacity) {
      ++stats_.busy_rejected;
      throw ServerError(ServerErrorKind::kBusy,
                        "job queue is full (" +
                            std::to_string(config_.queue_capacity) +
                            " queued); retry later");
    }
    if (draining_.load()) {
      ++stats_.shutdown_rejected;
      throw ServerError(ServerErrorKind::kShutdown,
                        "server is draining; not accepting new jobs");
    }
    id = next_job_id_++;
    Job job;
    job.id = id;
    job.spec = std::move(spec);
    job.submitted_at = metrics::now();
    const u64 timeout_ms =
        job.spec.timeout_ms != 0 ? job.spec.timeout_ms
                                 : config_.default_timeout_ms;
    if (timeout_ms != 0) {
      job.has_deadline = true;
      job.deadline = job.submitted_at + std::chrono::milliseconds(timeout_ms);
    }
    jobs_.emplace(id, std::move(job));
    ++queued_count_;
    ++stats_.submitted;
  }
  cv_dispatch_.notify_one();
  return id;
}

JsonValue JobServer::handle_submit(const JsonValue& req) {
  const u64 id = submit_job(req);
  JsonValue r = ok_reply("submitted");
  r.set("job_id", JsonValue::number(id));
  const MutexLock lock(mutex_);
  r.set("queue_depth", JsonValue::number(u64{queued_count_}));
  return r;
}

JsonValue JobServer::handle_status(const JsonValue& req) {
  const u64 id = req.get_u64("job_id", 0);
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw ServerError(ServerErrorKind::kNotFound,
                      "no job " + std::to_string(id) +
                          " (never submitted, or evicted after retention)");
  const Job& job = it->second;
  JsonValue r = ok_reply("status");
  r.set("job_id", JsonValue::number(id));
  r.set("state", JsonValue::string(to_string(job.state)));
  if (job.state == JobState::kQueued) {
    // Ids are handed out in FIFO order, so the position is the number of
    // still-queued jobs submitted before this one.
    u64 ahead = 0;
    for (auto o = jobs_.lower_bound(next_queued_); o->first < id; ++o)
      if (o->second.state == JobState::kQueued) ++ahead;
    r.set("queue_position", JsonValue::number(ahead));
  }
  r.set("wall_ms", JsonValue::number(is_terminal(job.state)
                                         ? job.wall_ms
                                         : metrics::ms_since(job.submitted_at)));
  if (!job.error.empty()) {
    r.set("error", JsonValue::string(wire_code(job.error_kind)));
    r.set("message", JsonValue::string(job.error));
  }
  return r;
}

JsonValue JobServer::result_reply_locked(const Job& job) const {
  if (job.state == JobState::kFailed || job.state == JobState::kTimeout) {
    JsonValue r = error_reply(job.error_kind, job.error);
    r.set("job_id", JsonValue::number(job.id));
    r.set("state", JsonValue::string(to_string(job.state)));
    return r;
  }
  JsonValue r = ok_reply("result");
  r.set("job_id", JsonValue::number(job.id));
  r.set("state", JsonValue::string(to_string(job.state)));
  r.set("ready", JsonValue::boolean(job.state == JobState::kDone));
  if (job.state == JobState::kDone) {
    r.set("benchmark", JsonValue::string(job.spec.benchmark));
    r.set("metrics", sim::run_result_json(job.result));
    r.set("result", sim::run_result_to_json(job.result));
    r.set("wall_ms", JsonValue::number(job.wall_ms));
  }
  return r;
}

bool JobServer::wait_for_job(u64 id, u64 wait_ms) {
  const MutexLock lock(mutex_);
  const auto deadline = metrics::now() + std::chrono::milliseconds(wait_ms);
  while (true) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return true;  // evicted — as terminal as it gets
    if (is_terminal(it->second.state)) return true;
    if (closing_.load()) return false;
    if (cv_done_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      const auto again = jobs_.find(id);
      return again == jobs_.end() || is_terminal(again->second.state);
    }
  }
}

JsonValue JobServer::handle_result(const JsonValue& req) {
  const u64 id = req.get_u64("job_id", 0);
  if (req.get_bool("wait", false))
    wait_for_job(id, req.get_u64("wait_ms", 60'000));
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw ServerError(ServerErrorKind::kNotFound,
                      "no job " + std::to_string(id) +
                          " (never submitted, or evicted after retention)");
  return result_reply_locked(it->second);
}

JsonValue JobServer::handle_run(const JsonValue& req) {
  const u64 id = submit_job(req);
  u64 budget_ms = 600'000;
  {
    const MutexLock lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.has_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          it->second.deadline - metrics::now());
      budget_ms = static_cast<u64>(left.count() > 0 ? left.count() : 0) +
                  5'000;  // grace for a worker to notice the deadline
    }
  }
  if (!wait_for_job(id, budget_ms))
    throw ServerError(ServerErrorKind::kShutdown,
                      "server closed before the job finished");
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw ServerError(ServerErrorKind::kInternal,
                      "job evicted before its result was read");
  return result_reply_locked(it->second);
}

JsonValue JobServer::handle_stats() const {
  const ServerStats s = stats();
  JsonValue r = ok_reply("stats");
  r.set("uptime_ms", JsonValue::number(metrics::ms_since(started_at_)));
  r.set("draining", JsonValue::boolean(draining_.load()));
  r.set("workers", JsonValue::number(u64{config_.workers}));
  r.set("queue_capacity", JsonValue::number(u64{config_.queue_capacity}));
  r.set("queued", JsonValue::number(u64{s.queued}));
  r.set("running", JsonValue::number(u64{s.running}));
  r.set("connections_accepted", JsonValue::number(s.connections_accepted));
  r.set("connections_rejected", JsonValue::number(s.connections_rejected));
  r.set("requests", JsonValue::number(s.requests));
  r.set("submitted", JsonValue::number(s.submitted));
  r.set("busy_rejected", JsonValue::number(s.busy_rejected));
  r.set("shutdown_rejected", JsonValue::number(s.shutdown_rejected));
  r.set("completed", JsonValue::number(s.completed));
  r.set("failed", JsonValue::number(s.failed));
  r.set("timed_out", JsonValue::number(s.timed_out));
  r.set("cache_hits", JsonValue::number(s.cache_hits));
  r.set("cache_misses", JsonValue::number(s.cache_misses));
  r.set("cache_stores", JsonValue::number(s.cache_stores));
  r.set("unauthorized", JsonValue::number(s.unauthorized));
  if (cache_) {
    r.set("store_entries",
          JsonValue::number(u64{cache_->result_store().size()}));
    r.set("store_bytes",
          JsonValue::number(cache_->result_store().disk_bytes()));
  }
  r.set("registered_traces", JsonValue::number(u64{registry_.size()}));
  r.set("access_log_rotated", JsonValue::number(log_.rotated()));
  return r;
}

JsonValue JobServer::handle_drain() {
  // Remote equivalent of aeep_served's SIGTERM path: stop accepting new
  // submits, let the queue finish. The reply confirms the state flip.
  request_drain();
  JsonValue r = ok_reply("drain");
  r.set("draining", JsonValue::boolean(true));
  return r;
}

JsonValue JobServer::handle_metrics() const {
  // Whole-registry snapshot: every histogram (raw buckets + derived
  // percentiles) and counter in the process, not just the server.* family —
  // a worker's store.* and sim.* instruments ride along for free.
  JsonValue r = ok_reply("metrics");
  r.set("uptime_ms", JsonValue::number(metrics::ms_since(started_at_)));
  r.set("metrics", metrics::Registry::instance().snapshot_json());
  return r;
}

void JobServer::log_metrics_summary(const char* reason) {
  JsonValue f = JsonValue::object();
  f.set("reason", JsonValue::string(reason));
  JsonValue stages = JsonValue::object();
  for (const auto& [name, snap] : metrics::Registry::instance().histograms()) {
    if (snap.empty()) continue;
    JsonValue s = JsonValue::object();
    s.set("count", JsonValue::number(snap.count));
    s.set("p50", JsonValue::number(snap.percentile(50.0)));
    s.set("p99", JsonValue::number(snap.percentile(99.0)));
    s.set("max", JsonValue::number(snap.max));
    stages.set(name, std::move(s));
  }
  f.set("histograms", std::move(stages));
  log_.write("metrics", std::move(f));
}

JsonValue JobServer::handle_traces() const {
  JsonValue r = ok_reply("traces");
  JsonValue names = JsonValue::array();
  for (const auto& name : registry_.names())
    names.push(JsonValue::string(name));
  r.set("traces", std::move(names));
  return r;
}

}  // namespace aeep::server
