#include "fabric/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "server/client.hpp"
#include "server/wire.hpp"
#include "sim/result_json.hpp"

namespace aeep::fabric {

namespace {

/// The wire embeds the human kind prefix in what(); strip it so a remote
/// simulator failure reads like the local SweepOutcome error it mirrors.
std::string strip_kind_prefix(const server::ServerError& e) {
  const std::string what = e.what();
  const std::string prefix =
      std::string(server::to_string(e.kind())) + ": ";
  return what.rfind(prefix, 0) == 0 ? what.substr(prefix.size()) : what;
}

}  // namespace

Coordinator::Coordinator(FabricConfig config) : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_attempts == 0) config_.max_attempts = 1;
  if (!config_.store_dir.empty())
    cache_ = std::make_unique<store::SweepCache>(
        store::StoreConfig{config_.store_dir, 4096});
}

FabricStats Coordinator::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

void Coordinator::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = FabricStats{};
}

std::vector<DroppedWorker> Coordinator::dropped() const {
  const MutexLock lock(mutex_);
  return dropped_;
}

std::vector<FabricOutcome> Coordinator::run(
    const std::vector<sim::SweepJob>& grid, const ProgressFn& progress) {
  std::vector<FabricOutcome> out(grid.size());
  if (grid.empty()) return out;

  RunState rs;
  rs.grid = &grid;
  rs.out = &out;
  rs.cells.resize(grid.size());
  rs.progress = progress;

  // Consult the result store before sharding anything: a hit cell is
  // delivered terminal right here (worker = "cache", zero attempts) and
  // never enters the pending queue. Lookups run unlocked — the cache has
  // its own mutex and the two never nest.
  std::vector<std::optional<sim::RunResult>> cached(grid.size());
  if (cache_) {
    for (std::size_t i = 0; i < grid.size(); ++i)
      cached[i] = cache_->lookup(grid[i]);
  }
  {
    const MutexLock lock(mutex_);
    dropped_.clear();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!cached[i]) {
        rs.pending.push_back(i);
        continue;
      }
      FabricOutcome oc;
      oc.result = std::move(*cached[i]);
      oc.worker = "cache";
      out[i] = std::move(oc);
      ++rs.completed;
      ++stats_.jobs_cached;
      if (rs.progress) {
        FabricProgress p{rs.completed, grid.size(), i, &grid[i], &out[i]};
        rs.progress(p);
      }
    }
  }

  // Each worker thread runs until every cell is done or it leaves the run.
  // Once all have returned, whatever is still pending has no worker left.
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < config_.workers.size(); ++i)
    threads.emplace_back([this, i, &rs] { worker_loop(i, rs); });
  for (auto& t : threads) t.join();
  run_locally(rs);

  // Persist what the run computed (cache hits are already stored).
  if (cache_) {
    u64 inserted = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!out[i].ok() || out[i].worker == "cache") continue;
      cache_->insert(grid[i], out[i].result);
      ++inserted;
    }
    const MutexLock lock(mutex_);
    stats_.store_inserts += inserted;
  }
  return out;
}

std::vector<std::size_t> Coordinator::claim_batch(RunState& rs) {
  std::vector<std::size_t> batch;
  const MutexLock lock(mutex_);
  while (rs.completed < rs.grid->size() && rs.pending.empty())
    cv_work_.wait(mutex_);
  const auto now = metrics::now();
  while (!rs.pending.empty() && batch.size() < config_.batch_size) {
    const std::size_t idx = rs.pending.front();
    rs.pending.pop_front();
    ++rs.cells[idx].attempts;
    rs.cells[idx].dispatched_at = now;
    batch.push_back(idx);
  }
  return batch;
}

void Coordinator::deliver(RunState& rs, std::size_t index,
                          FabricOutcome outcome) {
  static metrics::Histogram& cell_wall_us =
      metrics::Registry::instance().histogram("fabric.cell_wall_us");
  const MutexLock lock(mutex_);
  const Cell& c = rs.cells[index];
  outcome.attempts = c.attempts;
  if (outcome.ok()) {
    if (outcome.worker == "local") ++stats_.jobs_local;
    else ++stats_.jobs_remote;
  }
  cell_wall_us.record(
      static_cast<u64>(metrics::ms_since(c.dispatched_at) * 1000.0));
  (*rs.out)[index] = std::move(outcome);
  ++rs.completed;
  if (rs.progress) {
    FabricProgress p{rs.completed, rs.grid->size(), index,
                     &(*rs.grid)[index], &(*rs.out)[index]};
    rs.progress(p);  // under the lock: serialised, completion order
  }
  if (rs.completed == rs.grid->size()) cv_work_.notify_all();
}

void Coordinator::requeue(RunState& rs, std::size_t index,
                          const std::string& error, bool charge_attempt) {
  {
    const MutexLock lock(mutex_);
    Cell& c = rs.cells[index];
    // A cell bounced by backpressure never reached a worker; claiming it
    // must not burn retry budget, or a saturated-but-healthy fleet would
    // slowly fail its whole grid.
    if (!charge_attempt) --c.attempts;
    if (c.attempts < config_.max_attempts) {
      rs.pending.push_back(index);
      ++stats_.retries;
      static metrics::Counter& retries =
          metrics::Registry::instance().counter("fabric.retries");
      retries.increment();
      cv_work_.notify_all();
      return;
    }
  }
  FabricOutcome oc;
  oc.error = "gave up after " + std::to_string(config_.max_attempts) +
             " dispatches; last error: " + error;
  deliver(rs, index, std::move(oc));
}

void Coordinator::run_locally(RunState& rs) {
  std::vector<std::size_t> indices;
  {
    const MutexLock lock(mutex_);
    const auto now = metrics::now();
    indices.assign(rs.pending.begin(), rs.pending.end());
    rs.pending.clear();
    for (const std::size_t idx : indices) {
      ++rs.cells[idx].attempts;
      rs.cells[idx].dispatched_at = now;
    }
  }
  if (indices.empty()) return;

  std::vector<sim::SweepJob> subgrid;
  subgrid.reserve(indices.size());
  for (const std::size_t idx : indices) subgrid.push_back((*rs.grid)[idx]);
  const sim::SweepRunner runner(config_.local_jobs);
  runner.run(subgrid, [&](const sim::SweepProgress& p) {
    FabricOutcome oc;
    oc.worker = "local";
    if (p.outcome->ok())
      oc.result = p.outcome->result;
    else
      oc.error = p.outcome->error;
    deliver(rs, indices[p.job_index], std::move(oc));
  });
}

void Coordinator::worker_loop(std::size_t worker_idx, RunState& rs) {
  Backoff backoff(config_.backoff,
                  config_.seed + 0x9E3779B97F4A7C15ull * (worker_idx + 1));
  const WorkerEndpoint& ep = config_.workers[worker_idx];
  const std::string name = ep.display_name();
  // Per-worker RPC latency: one instrument per endpoint, so a slow worker
  // shows up as its own p99 rather than hiding in the fleet aggregate.
  // Failed calls record too — a timed-out RPC *is* latency.
  metrics::Histogram& rpc_us =
      metrics::Registry::instance().histogram("fabric.rpc_us." + name);
  unsigned failures = 0;  // consecutive failed round trips

  while (true) {
    const std::vector<std::size_t> batch = claim_batch(rs);
    if (batch.empty()) return;  // every cell is done

    std::vector<u64> ids;     // ids[i]: batch[i]'s job id on the worker
    std::size_t settled = 0;  // batch[0, settled) delivered or re-queued
    bool failed = false;
    std::string failure;
    try {
      server::Client client(ep.host, ep.port);
      client.set_call_timeout_ms(static_cast<int>(config_.call_timeout_ms));
      if (!config_.token.empty()) client.set_token(config_.token);
      {
        const MutexLock lock(mutex_);
        ++stats_.dispatches;
      }

      // Shard the batch onto the worker's queue. A kBusy bounce stops
      // submitting (the rest of the batch is re-queued below) but is not a
      // failure — the worker is alive, just saturated.
      for (const std::size_t idx : batch) {
        const sim::SweepJob& job = (*rs.grid)[idx];
        try {
          const metrics::ScopedTimer span(rpc_us);
          ids.push_back(client.submit(
              server::job_spec_from_options(job.benchmark, job.options)));
        } catch (const server::ServerError& e) {
          if (e.kind() != server::ServerErrorKind::kBusy) throw;
          const MutexLock lock(mutex_);
          ++stats_.busy_backoffs;
          break;
        }
      }

      // Collect in submission order, polling in short chunks: every
      // round trip is bounded by call_timeout_ms, so a worker that dies
      // (or a ChaosProxy that swallows the reply) is detected by the
      // socket timeout instead of hanging the thread for the whole
      // job_wait_ms budget. Each cell completes or re-queues individually
      // so one bad cell cannot sink its batch-mates.
      for (; settled < ids.size(); ++settled) {
        const std::size_t idx = batch[settled];
        const auto wait_deadline =
            metrics::now() + std::chrono::milliseconds(config_.job_wait_ms);
        try {
          while (true) {
            const double left_ms =
                metrics::ms_between(metrics::now(), wait_deadline);
            if (left_ms <= 0.0) {
              requeue(rs, idx, "result not ready within the wait budget",
                      true);
              break;
            }
            const u64 chunk = std::min<u64>(
                static_cast<u64>(left_ms) + 1,
                std::max<u64>(1, config_.call_timeout_ms / 4));
            const metrics::ScopedTimer span(rpc_us);
            const JsonValue reply =
                client.result(ids[settled], /*wait=*/true, chunk);
            if (!reply.get_bool("ready", false))
              continue;  // still queued/running on the worker
            const JsonValue* doc = reply.find("result");
            std::optional<sim::RunResult> result =
                doc ? sim::run_result_from_json(*doc) : std::nullopt;
            if (!result) {
              // Never deliver what we cannot read back exactly; another
              // attempt (here or elsewhere) recomputes the same cell.
              requeue(rs, idx, "result reply carried no decodable result",
                      true);
              break;
            }
            FabricOutcome oc;
            oc.result = std::move(*result);
            oc.worker = name;
            deliver(rs, idx, std::move(oc));
            break;
          }
        } catch (const server::ServerError& e) {
          if (e.kind() == server::ServerErrorKind::kInternal) {
            // The simulator itself rejected this cell — deterministic, so
            // it would fail identically anywhere. Terminal, not retried.
            FabricOutcome oc;
            oc.error = strip_kind_prefix(e);
            oc.worker = name;
            deliver(rs, idx, std::move(oc));
          } else if (e.kind() == server::ServerErrorKind::kTimeout) {
            // Blew its deadline on *this* worker; another may be faster.
            requeue(rs, idx, strip_kind_prefix(e), true);
          } else {
            throw;  // connection-level trouble: the whole batch is suspect
          }
        }
      }
    } catch (const std::exception& e) {
      failed = true;
      failure = e.what();
    }

    // Whatever was neither delivered nor individually re-queued goes back
    // on the queue — a batch abort must never lose a cell. Cells that
    // never reached the worker (a busy bounce, a failed connect or submit)
    // cost no attempt.
    for (std::size_t i = settled; i < batch.size(); ++i)
      requeue(rs, batch[i], failure, /*charge_attempt=*/i < ids.size());

    if (!failed) {
      failures = 0;
      backoff.reset();
      if (ids.size() < batch.size()) {  // bounced: cool off once
        backoff_sleep(backoff);
        backoff.reset();
      }
      continue;
    }
    {
      const MutexLock lock(mutex_);
      ++stats_.worker_failures;
      if (++failures >= kDropAfter) {
        dropped_.push_back(DroppedWorker{name, failure});
        return;
      }
    }
    backoff_sleep(backoff);
  }
}

}  // namespace aeep::fabric
