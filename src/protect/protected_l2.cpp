#include "protect/protected_l2.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"
#include "protect/shared_ecc_array.hpp"
#include "protect/uniform_ecc.hpp"

namespace aeep::protect {

const char* to_string(CleaningPolicy p) {
  switch (p) {
    case CleaningPolicy::kWrittenBit: return "written-bit";
    case CleaningPolicy::kNaive: return "naive";
    case CleaningPolicy::kDecayCounter: return "decay-counter";
    case CleaningPolicy::kEagerIdle: return "eager-idle";
  }
  return "?";
}

const char* to_string(WbCause c) {
  switch (c) {
    case WbCause::kReplacement: return "WB";
    case WbCause::kCleaning: return "Clean-WB";
    case WbCause::kEccEviction: return "ECC-WB";
  }
  return "?";
}

const char* to_string(SchemeKind k) {
  switch (k) {
    case SchemeKind::kUniformEcc: return "uniform-ecc";
    case SchemeKind::kNonUniform: return "non-uniform";
    case SchemeKind::kSharedEccArray: return "shared-ecc-array";
  }
  return "?";
}

namespace {
std::unique_ptr<ProtectionScheme> make_scheme(const L2Config& cfg,
                                              cache::Cache& cache) {
  if (cfg.scheme_factory) return cfg.scheme_factory(cache);
  switch (cfg.scheme) {
    case SchemeKind::kUniformEcc:
      return std::make_unique<UniformEccScheme>(cache);
    case SchemeKind::kNonUniform:  // §3.1: an ECC entry for every way
      return std::make_unique<SharedEccArrayScheme>(cache,
                                                    cfg.geometry.ways);
    case SchemeKind::kSharedEccArray:
      return std::make_unique<SharedEccArrayScheme>(cache,
                                                    cfg.ecc_entries_per_set);
  }
  return nullptr;
}
}  // namespace

ProtectedL2::ProtectedL2(const L2Config& config, mem::SplitTransactionBus& bus,
                         mem::MemoryStore& memory)
    : config_(config),
      cache_(config.geometry, config.replacement, config.seed),
      scheme_(make_scheme(config, cache_)),
      cleaner_(config.geometry.num_sets(), config.cleaning_interval),
      bus_(&bus),
      memory_(&memory),
      recovery_(config.recovery, cache_, *scheme_, bus, memory),
      fill_buf_(config.geometry.words_per_line(), 0) {
  if (config_.cleaning_policy == CleaningPolicy::kDecayCounter)
    decay_.assign(config_.geometry.total_lines(), 0);
}

void ProtectedL2::note_dirty(Cycle now, bool force) {
  // Timestamps arrive in CPU-cycle order; equal times are fine.
  if (now < last_note_) now = last_note_;
  last_note_ = now;
  const u64 dirty = cache_.dirty_count();
  // The level is piecewise-constant, so re-recording an unchanged count is
  // a no-op for the integral: defer it (this runs on every L2 access) and
  // charge the whole constant segment on the next real change. The peak
  // cannot have moved either. finalize()/reset_metrics() force a flush so
  // the trailing segment is never lost.
  if (!force && dirty == noted_dirty_) return;
  noted_dirty_ = dirty;
  dirty_level_.update(now, static_cast<double>(dirty));
  peak_dirty_ = std::max(peak_dirty_, dirty);
}

void ProtectedL2::do_writeback(Cycle now, u64 set, unsigned way,
                               WbCause cause) {
  assert(cache_.meta(set, way).dirty);
  // Outbound validation: corrupt dirty data must not silently reach memory.
  if (validating() && !recovery_.validate_writeback(now, set, way)) {
    note_dirty(now);  // the line was dropped instead of written back
    return;
  }
  const Addr addr = cache_.line_addr(set, way);
  bus_->write(now, addr, config_.geometry.line_bytes);
  memory_->write_line(addr, cache_.data(set, way));
  cache_.clear_dirty(set, way);
  cache_.set_written(set, way, false);
  scheme_->on_writeback(set, way);
  ++wb_[static_cast<unsigned>(cause)];
  note_dirty(now);
}

ProtectedL2::Located ProtectedL2::locate_or_fill(Cycle now, Addr addr,
                                                 bool is_write,
                                                 unsigned depth) {
  const Cycle start = std::max(now, port_free_);
  port_free_ = start + 1;  // pipelined: one new access per cycle

  const Addr line = config_.geometry.line_base(addr);
  const cache::ProbeResult pr = cache_.probe(line);
  auto& st = cache_.stats();
  if (is_write)
    ++st.writes;
  else
    ++st.reads;

  if (pr.hit) {
    if (is_write)
      ++st.write_hits;
    else
      ++st.read_hits;
    cache_.touch(pr.set, pr.way, now);
    Cycle ready = start + config_.hit_latency;

    // Online validation: every hit runs the scheme's read check and pays
    // for whatever recovery the outcome demands.
    if (validating() && depth == 0) {
      const RecoveryController::Result res =
          recovery_.validate(now, pr.set, pr.way);
      ready += res.extra_latency;
      if (res.retire_way)
        execute_retirement(now, pr.set, pr.way, res.data_intact);
      if (!cache_.meta(pr.set, pr.way).valid) {
        // Dropped (and possibly retired): the demand access restarts as a
        // miss — the containment's re-fetch — into an active way.
        note_dirty(now);
        Located refill = locate_or_fill(now, addr, is_write, depth + 1);
        refill.ready = std::max(refill.ready, ready);
        refill.was_hit = false;
        return refill;
      }
      if (res.line_dropped || res.retire_way) note_dirty(now);
    }
    return {pr.set, pr.way, ready, true};
  }

  // Miss: evict, then fill from memory.
  const cache::Victim victim = cache_.pick_victim(pr.set);
  if (victim.valid) {
    if (victim.dirty)
      do_writeback(now, pr.set, victim.way, WbCause::kReplacement);
    scheme_->on_evict(pr.set, victim.way);
  }
  const Cycle fill_done =
      bus_->read(start + config_.hit_latency, line, config_.geometry.line_bytes);
  memory_->read_line(line, fill_buf_);
  cache_.install(pr.set, victim.way, line, now, fill_buf_);
  recovery_.on_install(pr.set, victim.way);
  if (config_.maintain_codes) scheme_->on_fill(pr.set, victim.way);
  note_dirty(now);
  return {pr.set, victim.way, fill_done, false};
}

void ProtectedL2::execute_retirement(Cycle now, u64 set, unsigned way,
                                     bool data_intact) {
  const cache::CacheLineMeta& m = cache_.meta(set, way);
  if (m.valid) {
    if (m.dirty) {
      if (data_intact)
        do_writeback(now, set, way, WbCause::kReplacement);
      else
        recovery_.note_dirty_line_lost();
    }
    scheme_->on_evict(set, way);
    cache_.invalidate(set, way);
  }
  cache_.retire_way(set, way);
  recovery_.note_way_retired(now, set, way);
  note_dirty(now);
}

double ProtectedL2::retired_capacity_fraction() const {
  return static_cast<double>(cache_.retired_ways()) /
         static_cast<double>(config_.geometry.total_lines());
}

Cycle ProtectedL2::read(Cycle now, Addr addr) {
  const Cycle ready = locate_or_fill(now, addr, /*is_write=*/false).ready;
  if (audit_hook_) audit_hook_(now);
  return ready;
}

Cycle ProtectedL2::write(Cycle now, Addr addr, u64 word_mask,
                         std::span<const u64> words) {
  assert(config_.geometry.line_base(addr) == addr);
  const Located loc = locate_or_fill(now, addr, /*is_write=*/true);

  // §3.3 write path: make sure the line may become (or stay) dirty. The
  // shared-ECC-array scheme may first demand an ECC-entry eviction.
  while (auto fw = scheme_->before_dirty(loc.set, loc.way)) {
    do_writeback(now, fw->set, fw->way, WbCause::kEccEviction);
  }

  const bool was_dirty = cache_.meta(loc.set, loc.way).dirty;
  if (was_dirty) {
    // §3.2: the written bit is set when a line is modified more than once.
    cache_.set_written(loc.set, loc.way, true);
  } else {
    cache_.mark_dirty(loc.set, loc.way);
  }
  if (!decay_.empty())
    decay_[loc.set * config_.geometry.ways + loc.way] = 0;  // write resets age

  auto dst = cache_.data(loc.set, loc.way);
  u64 changed_mask = 0;
  for (unsigned w = 0; w < dst.size(); ++w) {
    if (word_mask & (u64{1} << w)) {
      if (dst[w] != words[w]) {
        dst[w] = words[w];
        changed_mask |= u64{1} << w;
      }
    }
  }
  if (config_.maintain_codes) {
    // Silent-write elision ("Using Silent Writes in Low-Power Traffic-Aware
    // ECC"): a written word whose value did not change already carries
    // valid check bits — encode() is a pure function of the data — so its
    // re-encode can be skipped. Only safe when nothing else can have
    // touched the stored bits since they were encoded: with on-access
    // checking (the fault-injection configs) the rewrite must refresh the
    // full mask, because re-encoding a struck word is part of the modeled
    // behaviour. The scheme hook still runs with an empty mask so dirty-
    // transition bookkeeping (a freshly allocated ECC entry's full-line
    // encode on its first write) stays exact.
    u64 encode_mask = word_mask;
    if (!config_.recovery.check_on_access) {
      const u64 live = dst.size() >= 64
                           ? word_mask
                           : word_mask & ((u64{1} << dst.size()) - 1);
      encode_mask = changed_mask;
      silent_words_elided_ += popcount64(live) - popcount64(changed_mask);
    }
    scheme_->on_write_applied(loc.set, loc.way, encode_mask);
  }
  note_dirty(now);
  if (audit_hook_) audit_hook_(now);
  return loc.ready;
}

void ProtectedL2::inspect_set(Cycle now, u64 set) {
  switch (config_.cleaning_policy) {
    case CleaningPolicy::kWrittenBit:
      for (unsigned way = 0; way < config_.geometry.ways; ++way) {
        const cache::CacheLineMeta& m = cache_.meta(set, way);
        if (!m.valid) continue;
        if (m.dirty && !m.written) {
          // Dead for writes: eagerly clean it (§3.2).
          do_writeback(now, set, way, WbCause::kCleaning);
        } else if (m.written) {
          // Give it another interval to prove it stopped being written.
          cache_.set_written(set, way, false);
        }
      }
      break;

    case CleaningPolicy::kNaive:
      for (unsigned way = 0; way < config_.geometry.ways; ++way) {
        const cache::CacheLineMeta& m = cache_.meta(set, way);
        if (m.valid && m.dirty) do_writeback(now, set, way, WbCause::kCleaning);
      }
      break;

    case CleaningPolicy::kDecayCounter:
      for (unsigned way = 0; way < config_.geometry.ways; ++way) {
        const cache::CacheLineMeta& m = cache_.meta(set, way);
        if (!m.valid || !m.dirty) continue;
        u8& age = decay_[set * config_.geometry.ways + way];
        if (++age >= config_.decay_threshold) {
          do_writeback(now, set, way, WbCause::kCleaning);
          age = 0;
        }
      }
      break;

    case CleaningPolicy::kEagerIdle: {
      if (bus_->next_free(now) != now) break;  // bus busy: stay out of the way
      // Clean the LRU dirty line of the set (Lee et al. write back lines
      // reaching the LRU position).
      int victim = -1;
      Cycle oldest = ~Cycle{0};
      for (unsigned way = 0; way < config_.geometry.ways; ++way) {
        const cache::CacheLineMeta& m = cache_.meta(set, way);
        if (m.valid && m.dirty && m.stamp < oldest) {
          oldest = m.stamp;
          victim = static_cast<int>(way);
        }
      }
      if (victim >= 0)
        do_writeback(now, set, static_cast<unsigned>(victim),
                     WbCause::kCleaning);
      break;
    }
  }
}

void ProtectedL2::tick(Cycle now) {
  bool did_work = false;
  while (auto set = cleaner_.due(now)) {
    ++cleaning_inspections_;
    inspect_set(now, *set);
    did_work = true;
  }
  if (validating()) {
    // Execute retirements queued by the recovery controller (threshold
    // crossings on the write-back path) now that no access is in flight.
    // do_writeback re-validates the evicted dirty data, so corruption the
    // site accumulated since the queueing still cannot reach memory.
    u64 set = 0;
    unsigned way = 0;
    while (recovery_.take_pending_retirement(set, way)) {
      execute_retirement(now, set, way, /*data_intact=*/true);
      did_work = true;
    }
  }
  if (did_work && audit_hook_) audit_hook_(now);
}

Cycle ProtectedL2::next_event(Cycle now) const {
  if (validating() && recovery_.retirement_pending()) return now;
  return std::max(now, cleaner_.next_due());
}

void ProtectedL2::finalize(Cycle now) { note_dirty(now, /*force=*/true); }

void ProtectedL2::reset_metrics(Cycle now) {
  cache_.stats() = {};
  wb_[0] = wb_[1] = wb_[2] = 0;
  last_note_ = std::max(now, last_note_);
  noted_dirty_ = cache_.dirty_count();
  dirty_level_.reset(last_note_, static_cast<double>(noted_dirty_));
  peak_dirty_ = cache_.dirty_count();
  cleaning_inspections_ = 0;
  silent_words_elided_ = 0;
  recovery_.reset_stats();
  scheme_->reset_metrics();
}

u64 ProtectedL2::wb_total() const {
  return wb_[0] + wb_[1] + wb_[2];
}

double ProtectedL2::avg_dirty_fraction() const {
  return dirty_level_.average() /
         static_cast<double>(config_.geometry.total_lines());
}

}  // namespace aeep::protect
