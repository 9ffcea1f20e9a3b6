#include "protect/recovery.hpp"

#include <cassert>

namespace aeep::protect {

const char* to_string(DuePolicy p) {
  switch (p) {
    case DuePolicy::kPanic: return "panic";
    case DuePolicy::kDropRefetch: return "drop-refetch";
    case DuePolicy::kPoison: return "poison";
  }
  return "?";
}

const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kScrubCorrected: return "scrub-corrected";
    case RecoveryAction::kRefetched: return "refetched";
    case RecoveryAction::kRetryExhausted: return "retry-exhausted";
    case RecoveryAction::kDroppedRefetch: return "dropped-refetch";
    case RecoveryAction::kPoisoned: return "poisoned";
    case RecoveryAction::kPanicked: return "panicked";
    case RecoveryAction::kWayRetired: return "way-retired";
  }
  return "?";
}

RecoveryController::RecoveryController(const RecoveryConfig& config,
                                       cache::Cache& cache,
                                       ProtectionScheme& scheme,
                                       mem::SplitTransactionBus& bus,
                                       mem::MemoryStore& memory)
    : config_(config),
      cache_(&cache),
      scheme_(&scheme),
      bus_(&bus),
      memory_(&memory),
      fault_count_(cache.geometry().total_lines(), 0),
      poison_(cache.geometry().total_lines(), 0),
      pending_(cache.geometry().total_lines(), 0) {
  log_.reserve(config_.error_log_capacity);
}

void RecoveryController::drop_line(u64 set, unsigned way) {
  scheme_->on_evict(set, way);
  cache_->invalidate(set, way);
  poison_[slot(set, way)] = 0;
  ++stats_.lines_dropped;
}

bool RecoveryController::should_retire(u64 set, unsigned way) const {
  if (config_.retirement_threshold == 0) return false;
  if (fault_count_[slot(set, way)] < config_.retirement_threshold)
    return false;
  if (cache_->is_retired(set, way)) return false;
  // Never retire the last active way of a set: a direct-mapped remnant is
  // still a cache; zero ways is a hole in the address space.
  return cache_->active_ways(set) > 1;
}

bool RecoveryController::record_fault(u64 set, unsigned way) {
  u16& count = fault_count_[slot(set, way)];
  if (count < u16{0xFFFF}) ++count;  // saturate, don't wrap
  const bool retire = should_retire(set, way);
  if (retire && !pending_[slot(set, way)]) {
    // Queue it so the site retires even when the threshold was crossed off
    // the demand path (write-back validation) — ProtectedL2 drains the
    // queue from tick(), where no access is in flight.
    pending_[slot(set, way)] = 1;
    pending_retire_.emplace_back(set, way);
  }
  return retire;
}

bool RecoveryController::take_pending_retirement(u64& set, unsigned& way) {
  while (!pending_retire_.empty()) {
    const auto [s, w] = pending_retire_.back();
    pending_retire_.pop_back();
    pending_[slot(s, w)] = 0;
    if (!should_retire(s, w)) continue;  // retired meanwhile, or last way
    set = s;
    way = w;
    return true;
  }
  return false;
}

void RecoveryController::log_event(const ErrorLogEntry& e) {
  if (config_.error_log_capacity == 0) {
    ++log_dropped_;
    return;
  }
  if (log_.size() < config_.error_log_capacity) {
    log_.push_back(e);
    return;
  }
  // Ring: overwrite the oldest entry so the newest errors — the ones a
  // post-mortem wants — survive, and count the casualty.
  log_[log_head_] = e;
  log_head_ = (log_head_ + 1) % log_.size();
  ++log_dropped_;
}

std::vector<ErrorLogEntry> RecoveryController::error_log() const {
  std::vector<ErrorLogEntry> out;
  out.reserve(log_.size());
  for (std::size_t i = 0; i < log_.size(); ++i)
    out.push_back(log_[(log_head_ + i) % log_.size()]);
  return out;
}

void RecoveryController::on_install(u64 set, unsigned way) {
  poison_[slot(set, way)] = 0;
}

void RecoveryController::note_way_retired(Cycle now, u64 set, unsigned way) {
  (void)now;
  (void)set;
  (void)way;
  ++stats_.ways_retired;
}

void RecoveryController::reset_stats() {
  stats_ = {};
  log_.clear();
  log_head_ = 0;
  log_dropped_ = 0;
}

bool RecoveryController::validate_writeback(Cycle now, u64 set,
                                            unsigned way) {
  ++stats_.checks;
  const ReadCheck rc = scheme_->check_read(set, way, *memory_);
  if (rc.outcome == ReadOutcome::kOk) return true;
  ++stats_.errors;

  ErrorLogEntry entry;
  entry.cycle = now;
  entry.set = set;
  entry.way = way;
  entry.addr = cache_->line_addr(set, way);
  entry.was_dirty = true;
  entry.outcome = rc.outcome;

  bool write_back = true;
  switch (rc.outcome) {
    case ReadOutcome::kOk:
    case ReadOutcome::kRefetched:  // impossible for a dirty line
      break;
    case ReadOutcome::kCorrected:
      ++stats_.corrected;
      stats_.stall_cycles += kCorrectionLatency;
      entry.action = RecoveryAction::kScrubCorrected;
      break;
    case ReadOutcome::kUncorrectable:
      ++stats_.due_events;
      switch (config_.due_policy) {
        case DuePolicy::kPanic:
          panicked_ = true;
          ++stats_.panics;
          [[fallthrough]];
        case DuePolicy::kDropRefetch:
          ++stats_.dirty_lines_lost;
          drop_line(set, way);
          write_back = false;
          entry.action = config_.due_policy == DuePolicy::kPanic
                             ? RecoveryAction::kPanicked
                             : RecoveryAction::kDroppedRefetch;
          break;
        case DuePolicy::kPoison:
          ++stats_.poisoned_writebacks;
          entry.action = RecoveryAction::kPoisoned;
          break;
      }
      break;
  }
  record_fault(set, way);  // feeds the map and, past threshold, queues the
                           // site for retirement at the next tick
  log_event(entry);
  return write_back;
}

RecoveryController::Result RecoveryController::validate(Cycle now, u64 set,
                                                        unsigned way) {
  ++stats_.checks;
  if (poisoned(set, way)) ++stats_.poison_reads;

  const ReadCheck rc = scheme_->check_read(set, way, *memory_);
  if (rc.outcome == ReadOutcome::kOk) {
    Result res;
    res.data_intact = true;
    // The check passed, but the site's history may already condemn it:
    // faults tallied off the access path (write-back validation) still
    // count toward retirement, executed here where ProtectedL2 can react.
    res.retire_way = should_retire(set, way);
    if (res.retire_way) {
      ErrorLogEntry entry;
      entry.cycle = now;
      entry.set = set;
      entry.way = way;
      entry.addr = cache_->line_addr(set, way);
      entry.was_dirty = cache_->meta(set, way).dirty;
      entry.action = RecoveryAction::kWayRetired;
      entry.triggered_retirement = true;
      log_event(entry);
    }
    return res;
  }
  ++stats_.errors;

  Result res;
  ErrorLogEntry entry;
  entry.cycle = now;
  entry.set = set;
  entry.way = way;
  entry.addr = cache_->line_addr(set, way);
  entry.was_dirty = cache_->meta(set, way).dirty;
  entry.outcome = rc.outcome;

  switch (rc.outcome) {
    case ReadOutcome::kOk:
      break;

    case ReadOutcome::kCorrected:
      // The scheme already repaired the words in place; charge the scrub
      // write that commits the corrected values to the array.
      ++stats_.corrected;
      res.extra_latency = kCorrectionLatency;
      res.data_intact = true;
      entry.action = RecoveryAction::kScrubCorrected;
      break;

    case ReadOutcome::kRefetched: {
      // The scheme re-fetched the clean line from memory. Charge the bus
      // round trip it glossed over, then re-validate: a persistent fault
      // re-corrupts the fresh copy, so retry with backoff before giving up.
      const unsigned line_bytes = cache_->geometry().line_bytes;
      Cycle done = bus_->read(now, entry.addr, line_bytes);
      res.extra_latency = done - now;
      entry.action = RecoveryAction::kRefetched;
      res.data_intact = true;
      ++stats_.refetched;
      unsigned tries = 0;
      while (true) {
        if (reassert_) reassert_(set, way);
        const ReadCheck again = scheme_->check_read(set, way, *memory_);
        if (again.outcome == ReadOutcome::kOk ||
            again.outcome == ReadOutcome::kCorrected)
          break;
        if (tries >= config_.max_refetch_retries) {
          // Stuck cell: the data re-corrupts faster than we can fetch it.
          // Drop the line; the demand access re-fills it (and the fault map
          // below walks this site toward retirement).
          drop_line(set, way);
          res.line_dropped = true;
          res.data_intact = false;
          ++stats_.retry_exhausted;
          entry.action = RecoveryAction::kRetryExhausted;
          break;
        }
        ++tries;
        ++stats_.retries;
        const Cycle start =
            now + res.extra_latency + kRetryBackoff * tries;
        done = bus_->read(start, entry.addr, line_bytes);
        res.extra_latency = done - now;
      }
      entry.retries = tries;
      break;
    }

    case ReadOutcome::kUncorrectable: {
      ++stats_.due_events;
      const bool dirty = entry.was_dirty;
      switch (config_.due_policy) {
        case DuePolicy::kPanic:
          // Machine check: latch the flag and contain the line. The
          // simulation keeps running so the harness can observe the latch.
          panicked_ = true;
          ++stats_.panics;
          if (dirty) ++stats_.dirty_lines_lost;
          drop_line(set, way);
          res.line_dropped = true;
          entry.action = RecoveryAction::kPanicked;
          break;
        case DuePolicy::kDropRefetch:
          // Clean data recovers from memory on the re-fill; dirty data is
          // gone (the only up-to-date copy was the corrupted one).
          if (dirty) ++stats_.dirty_lines_lost;
          drop_line(set, way);
          res.line_dropped = true;
          entry.action = RecoveryAction::kDroppedRefetch;
          break;
        case DuePolicy::kPoison:
          // Keep the (corrupt) line but brand it: every later consumer is
          // counted as a poison propagation instead of silent corruption.
          poison_[slot(set, way)] = 1;
          ++stats_.lines_poisoned;
          entry.action = RecoveryAction::kPoisoned;
          break;
      }
      break;
    }
  }

  res.retire_way = record_fault(set, way);
  entry.triggered_retirement = res.retire_way;
  log_event(entry);
  stats_.stall_cycles += res.extra_latency;
  return res;
}

}  // namespace aeep::protect
