#include "fabric/coordinator.hpp"

#include <algorithm>
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

Coordinator::Coordinator(FabricConfig config)
    : config_(std::move(config)),
      registry_(config_.workers, config_.retire_after) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_attempts == 0) config_.max_attempts = 1;
  if (config_.straggler_factor < 1.0) config_.straggler_factor = 1.0;
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

std::size_t Coordinator::probe_fleet() {
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    if (registry_.retired(i)) continue;
    const WorkerEndpoint ep = registry_.endpoint(i);
    {
      const MutexLock lock(mutex_);
      ++stats_.probes;
    }
    try {
      server::Client client(ep.host, ep.port);
      client.set_call_timeout_ms(static_cast<int>(config_.probe_timeout_ms));
      if (!config_.token.empty()) client.set_token(config_.token);
      const JsonValue h = client.health();
      if (h.get_bool("draining", false)) {
        // A draining worker is leaving voluntarily: stop dispatching to it
        // now instead of burning its failure budget on kShutdown bounces.
        registry_.retire(i, "worker is draining");
        continue;
      }
      registry_.note_success(i);
    } catch (const server::ServerError& e) {
      {
        const MutexLock lock(mutex_);
        ++stats_.probe_failures;
      }
      registry_.note_failure(
          i, std::string("health probe failed: ") + e.what());
    }
  }
  return registry_.live();
}

bool Coordinator::fleet_degraded() const {
  const std::size_t live = registry_.live();
  return live == 0 || live < config_.min_fleet;
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
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (cached[i]) {
        Cell& c = rs.cells[i];
        c.done = true;
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
        continue;
      }
      rs.cells[i].queued = true;
      rs.pending.push_back(i);
    }
    if (rs.completed == grid.size()) rs.finished = true;
  }

  if (!config_.workers.empty()) probe_fleet();

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    if (registry_.retired(i)) continue;
    threads.emplace_back([this, i, &rs] { worker_loop(i, rs); });
  }

  // Monitor loop: watch for completion, nominate stragglers for
  // speculative re-dispatch, and absorb pending work locally once the
  // fleet has degraded below the floor. The lock is scoped per iteration
  // because speculate_stragglers/run_locally take it themselves.
  while (true) {
    {
      const MutexLock lock(mutex_);
      if (rs.completed >= grid.size()) break;
      cv_main_.wait_for(mutex_, std::chrono::milliseconds(200));
      if (rs.completed >= grid.size()) break;
    }
    speculate_stragglers(rs);
    if (fleet_degraded()) run_locally(rs);
  }
  {
    const MutexLock lock(mutex_);
    rs.finished = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads) t.join();

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
  const auto now = metrics::now();
  const MutexLock lock(mutex_);
  while (!rs.pending.empty() && batch.size() < config_.batch_size) {
    const std::size_t idx = rs.pending.front();
    rs.pending.pop_front();
    Cell& c = rs.cells[idx];
    c.queued = false;
    if (c.done) continue;  // a speculative duplicate already finished it
    ++c.attempts;
    ++c.inflight;
    c.dispatched_at = now;
    batch.push_back(idx);
  }
  return batch;
}

bool Coordinator::deliver(RunState& rs, std::size_t index,
                          FabricOutcome outcome) {
  {
    const MutexLock lock(mutex_);
    Cell& c = rs.cells[index];
    if (c.inflight > 0) --c.inflight;
    if (c.done) {
      // First result won; this duplicate computed identical metrics (same
      // seed, same options), so discarding it cannot change the output.
      ++stats_.duplicates_discarded;
      return false;
    }
    c.done = true;
    outcome.attempts = c.attempts;
    outcome.speculative = c.speculated;
    if (outcome.ok()) {
      if (outcome.worker == "local") ++stats_.jobs_local;
      else ++stats_.jobs_remote;
    }
    const double wall_ms = metrics::ms_since(c.dispatched_at);
    rs.completion_ms.push_back(wall_ms);
    static metrics::Histogram& cell_wall_us =
        metrics::Registry::instance().histogram("fabric.cell_wall_us");
    cell_wall_us.record(static_cast<u64>(wall_ms * 1000.0));
    (*rs.out)[index] = std::move(outcome);
    ++rs.completed;
    if (rs.progress) {
      FabricProgress p{rs.completed, rs.grid->size(), index,
                       &(*rs.grid)[index], &(*rs.out)[index]};
      rs.progress(p);  // under the lock: serialised, completion order
    }
    if (rs.completed == rs.grid->size()) rs.finished = true;
  }
  cv_main_.notify_all();
  cv_work_.notify_all();
  return true;
}

void Coordinator::requeue(RunState& rs, std::size_t index,
                          const std::string& error, bool charge_attempt) {
  bool out_of_attempts = false;
  {
    const MutexLock lock(mutex_);
    Cell& c = rs.cells[index];
    if (c.done || c.queued) {  // finished elsewhere / already waiting
      if (c.inflight > 0) --c.inflight;
      return;
    }
    // A cell bounced by backpressure never reached a worker; claiming it
    // must not burn retry budget, or a saturated-but-healthy fleet would
    // slowly fail its whole grid.
    if (!charge_attempt && c.attempts > 0) --c.attempts;
    if (charge_attempt && c.attempts >= config_.max_attempts) {
      out_of_attempts = true;  // deliver() below decrements inflight
    } else {
      if (c.inflight > 0) --c.inflight;
      c.queued = true;
      rs.pending.push_back(index);
      ++stats_.retries;
      static metrics::Counter& retries =
          metrics::Registry::instance().counter("fabric.retries");
      retries.increment();
    }
  }
  if (out_of_attempts) {
    FabricOutcome oc;
    oc.error = "gave up after " + std::to_string(config_.max_attempts) +
               " dispatches; last error: " + error;
    deliver(rs, index, std::move(oc));
  } else {
    cv_work_.notify_all();
  }
}

void Coordinator::speculate_stragglers(RunState& rs) {
  bool nominated = false;
  {
    const MutexLock lock(mutex_);
    if (rs.completion_ms.size() < 3) return;  // no meaningful median yet
    std::vector<double> sorted = rs.completion_ms;
    const std::size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(mid),
                     sorted.end());
    const double median = sorted[mid];
    const double threshold =
        std::max(static_cast<double>(config_.straggler_min_ms),
                 config_.straggler_factor * median);
    for (std::size_t i = 0; i < rs.cells.size(); ++i) {
      Cell& c = rs.cells[i];
      if (c.done || c.queued || c.speculated || c.inflight == 0) continue;
      if (metrics::ms_since(c.dispatched_at) <= threshold) continue;
      c.speculated = true;
      c.queued = true;
      rs.pending.push_back(i);
      ++stats_.speculative_dispatches;
      nominated = true;
    }
  }
  if (nominated) cv_work_.notify_all();
}

void Coordinator::run_locally(RunState& rs) {
  std::vector<std::size_t> indices;
  {
    const MutexLock lock(mutex_);
    const auto now = metrics::now();
    while (!rs.pending.empty()) {
      const std::size_t idx = rs.pending.front();
      rs.pending.pop_front();
      Cell& c = rs.cells[idx];
      c.queued = false;
      if (c.done) continue;
      ++c.attempts;
      ++c.inflight;
      c.dispatched_at = now;
      indices.push_back(idx);
    }
  }
  if (indices.empty()) return;

  if (!config_.allow_local_fallback) {
    for (const std::size_t idx : indices) {
      FabricOutcome oc;
      oc.error = "no live workers and local fallback is disabled";
      deliver(rs, idx, std::move(oc));
    }
    return;
  }

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
  const WorkerEndpoint ep = registry_.endpoint(worker_idx);
  const std::string name = ep.display_name();
  // Per-worker RPC latency: one instrument per endpoint, so a slow worker
  // shows up as its own p99 rather than hiding in the fleet aggregate.
  // Failed calls record too — a timed-out RPC *is* latency.
  metrics::Histogram& rpc_us =
      metrics::Registry::instance().histogram("fabric.rpc_us." + name);

  while (true) {
    {
      const MutexLock lock(mutex_);
      while (!rs.finished && rs.pending.empty()) cv_work_.wait(mutex_);
      if (rs.finished) return;
    }
    if (registry_.retired(worker_idx)) return;

    std::vector<std::size_t> outstanding = claim_batch(rs);
    if (outstanding.empty()) continue;

    const auto settle = [&](std::size_t idx) {
      const auto it =
          std::find(outstanding.begin(), outstanding.end(), idx);
      if (it != outstanding.end()) outstanding.erase(it);
    };
    const auto run_finished = [&] {
      const MutexLock lock(mutex_);
      return rs.finished;
    };

    bool worker_failed = false;
    bool saw_busy = false;
    std::string failure;
    std::vector<std::pair<std::size_t, u64>> submitted;
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
      // health failure — the worker is alive, just saturated.
      for (const std::size_t idx : outstanding) {
        const sim::SweepJob& job = (*rs.grid)[idx];
        try {
          const metrics::ScopedTimer span(rpc_us);
          const u64 id = client.submit(
              server::job_spec_from_options(job.benchmark, job.options));
          submitted.emplace_back(idx, id);
        } catch (const server::ServerError& e) {
          if (e.kind() != server::ServerErrorKind::kBusy) throw;
          {
            const MutexLock lock(mutex_);
            ++stats_.busy_backoffs;
          }
          saw_busy = true;
          break;
        }
      }

      // Collect in submission order, polling in short chunks: every
      // round trip is bounded by call_timeout_ms, so a worker that dies
      // (or a ChaosProxy that swallows the reply) is detected by the
      // socket timeout instead of hanging the thread for the whole
      // job_wait_ms budget. Each cell completes or re-queues individually
      // so one bad cell cannot sink its batch-mates.
      for (const auto& [idx, id] : submitted) {
        const auto wait_deadline =
            metrics::now() + std::chrono::milliseconds(config_.job_wait_ms);
        try {
          while (true) {
            if (run_finished()) {  // a duplicate won the whole run already
              settle(idx);
              requeue(rs, idx, "run finished elsewhere");
              break;
            }
            const double left_ms =
                metrics::ms_between(metrics::now(), wait_deadline);
            if (left_ms <= 0.0) {
              settle(idx);
              requeue(rs, idx, "result not ready within the wait budget");
              break;
            }
            const u64 chunk = std::min<u64>(
                static_cast<u64>(left_ms) + 1,
                std::max<u64>(1, config_.call_timeout_ms / 4));
            const metrics::ScopedTimer span(rpc_us);
            const JsonValue reply = client.result(id, /*wait=*/true, chunk);
            if (!reply.get_bool("ready", false))
              continue;  // still queued/running on the worker
            settle(idx);
            const JsonValue* doc = reply.find("result");
            std::optional<sim::RunResult> result =
                doc ? sim::run_result_from_json(*doc) : std::nullopt;
            if (!result) {
              // Never deliver what we cannot read back exactly; another
              // attempt (here or elsewhere) recomputes the same cell.
              requeue(rs, idx, "result reply carried no decodable result");
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
            settle(idx);
            deliver(rs, idx, std::move(oc));
            continue;
          }
          if (e.kind() == server::ServerErrorKind::kTimeout) {
            // Blew its deadline on *this* worker; another may be faster.
            settle(idx);
            requeue(rs, idx, strip_kind_prefix(e));
            continue;
          }
          throw;  // connection-level trouble: the whole batch is suspect
        }
      }
    } catch (const server::ServerError& e) {
      worker_failed = true;
      failure = e.what();
    } catch (const std::exception& e) {
      worker_failed = true;
      failure = e.what();
    }

    // Whatever was neither delivered nor individually re-queued goes back
    // on the queue — a batch abort must never lose a cell. Cells that
    // never reached the worker (busy bounce) are re-queued without
    // charging their retry budget.
    const bool was_submitted_failed = worker_failed;
    for (const std::size_t idx : std::vector<std::size_t>(outstanding)) {
      const bool reached_worker =
          std::any_of(submitted.begin(), submitted.end(),
                      [&](const auto& p) { return p.first == idx; });
      requeue(rs, idx,
              was_submitted_failed ? failure : "batch not completed",
              /*charge_attempt=*/reached_worker);
    }
    outstanding.clear();

    if (worker_failed) {
      {
        const MutexLock lock(mutex_);
        ++stats_.worker_failures;
      }
      if (registry_.note_failure(worker_idx, failure)) return;  // retired
      backoff_sleep(backoff);
    } else {
      registry_.note_success(worker_idx);
      backoff.reset();
      if (saw_busy) backoff_sleep(backoff);  // cool off, then reset again
      backoff.reset();
    }
  }
}

}  // namespace aeep::fabric
