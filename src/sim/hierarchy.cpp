#include "sim/hierarchy.hpp"

#include <algorithm>
#include <cassert>

#include "common/crc64.hpp"

namespace aeep::sim {

u64 l1_side_digest(const HierarchyConfig& c) {
  const u64 fields[] = {
      c.l1i.size_bytes, c.l1i.ways, c.l1i.line_bytes,
      c.l1d.size_bytes, c.l1d.ways, c.l1d.line_bytes,
      c.l1_latency,
      c.itlb.entries, c.itlb.ways, c.itlb.page_bytes, c.itlb.miss_penalty,
      c.dtlb.entries, c.dtlb.ways, c.dtlb.page_bytes, c.dtlb.miss_penalty,
      c.write_buffer_entries, c.wb_min_residency, c.wb_high_watermark,
      c.l2.geometry.line_bytes, c.l2.hit_latency,
  };
  u8 bytes[sizeof fields];
  for (std::size_t i = 0; i < sizeof fields; ++i)
    bytes[i] = static_cast<u8>(fields[i / 8] >> (8 * (i % 8)));
  return crc64(bytes, sizeof bytes);
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config),
      store_(),
      bus_(config.bus),
      l2_(config.l2, bus_, store_),
      l1i_(config.l1i),
      l1d_(config.l1d),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      wbuf_(config.write_buffer_entries, config.l2.geometry.line_bytes) {
  if (!config_.capture_path.empty()) {
    capture_ = std::make_unique<trace::CaptureSink>(
        config_.capture_path, config_.l2.geometry.line_bytes,
        l1_side_digest(config_));
  }
  if (config_.strikes.enabled) {
    strikes_ = std::make_unique<fault::StrikeProcess>(l2_, config_.strikes);
    // Persistent faults re-corrupt a freshly re-fetched line before the
    // recovery controller's re-check — that is what exhausts retries.
    l2_.recovery().set_reassert_hook(
        [this](u64 set, unsigned way) { strikes_->reassert_line(set, way); });
  }
}

Cycle MemoryHierarchy::fetch(Cycle now, Addr pc) {
  if (capture_) capture_->on_fetch(now, pc);
  const Cycle tlb_extra = itlb_.access(pc, now);
  const cache::ProbeResult pr = l1i_.probe(pc);
  auto& st = l1i_.stats();
  ++st.reads;
  if (pr.hit) {
    ++st.read_hits;
    l1i_.touch(pr.set, pr.way, now);
    return now + config_.l1_latency + tlb_extra;
  }
  // L1I miss: fill through the unified L2. Instructions are never dirty.
  const cache::Victim victim = l1i_.pick_victim(pr.set);
  const Addr line = l1i_.geometry().line_base(pc);
  const Cycle offset = config_.l1_latency + tlb_extra;
  if (capture_) capture_->on_l2_fill(now, offset, line);
  const Cycle ready = l2_.read(now + offset, line);
  l1i_.install(pr.set, victim.way, line, now);
  return ready;
}

Cycle MemoryHierarchy::load(Cycle now, Addr addr) {
  if (capture_) capture_->on_load(now, addr);
  const Cycle tlb_extra = dtlb_.access(addr, now);
  const cache::ProbeResult pr = l1d_.probe(addr);
  auto& st = l1d_.stats();
  ++st.reads;
  if (pr.hit) {
    ++st.read_hits;
    l1d_.touch(pr.set, pr.way, now);
    return now + config_.l1_latency + tlb_extra;
  }
  const cache::Victim victim = l1d_.pick_victim(pr.set);
  const Addr line = l1d_.geometry().line_base(addr);
  const Cycle offset = config_.l1_latency + tlb_extra;
  if (capture_) capture_->on_l2_fill(now, offset, line);
  const Cycle ready = l2_.read(now + offset, line);
  l1d_.install(pr.set, victim.way, line, now);
  return ready;
}

bool MemoryHierarchy::store(Cycle now, Addr addr, u64 value) {
  // Write-through, write-no-allocate L1D: update in place on hit, never
  // dirty; all stores go to the write buffer. A store to a line already
  // buffered coalesces even when the buffer is full (CAM hit).
  const auto res = wbuf_.push(addr, value, now);
  if (res == cache::WriteBuffer::PushResult::kFull) {
    // Caller retries next cycle; tick() keeps draining meanwhile.
    return false;
  }
  // Only accepted stores are recorded: a rejected store has no side effects
  // and reappears in the stream at the cycle its retry lands.
  if (capture_) capture_->on_store(now, addr, value);

  dtlb_.access(addr, now);
  const cache::ProbeResult pr = l1d_.probe(addr);
  auto& st = l1d_.stats();
  ++st.writes;
  if (pr.hit) {
    ++st.write_hits;
    l1d_.touch(pr.set, pr.way, now);
    auto data = l1d_.data(pr.set, pr.way);
    data[(addr - l1d_.geometry().line_base(addr)) / 8] = value;
  }
  return true;
}

void MemoryHierarchy::drain_front(Cycle now) {
  cache::WriteBufferEntry e = wbuf_.pop();
  if (capture_) capture_->on_l2_drain(now, e.line, e.word_mask, e.words);
  const Cycle done = l2_.write(now, e.line, e.word_mask, e.words);
  // The next drain may start after this one's L2 array occupancy; the
  // demand-fill part of a write-allocate miss overlaps with later drains,
  // so charge only the hit latency as occupancy.
  wb_issue_free_ = std::max(wb_issue_free_, now) + config_.l2.hit_latency;
  (void)done;
  wbuf_.recycle(std::move(e));
}

Cycle MemoryHierarchy::drain_due() const {
  if (wbuf_.empty()) return kNever;
  // The front drains once the port is free and the buffer is over its
  // watermark or the front has aged out.
  const Cycle aged = wbuf_.size() > config_.wb_high_watermark
                         ? 0
                         : wbuf_.front_stamp() + config_.wb_min_residency;
  return std::max(aged, wb_issue_free_);
}

void MemoryHierarchy::tick(Cycle now) {
  // Strikes land before this cycle's drains/inspections touch the arrays.
  if (strikes_) strikes_->tick(now);
  while (drain_due() <= now) drain_front(now);
  l2_.tick(now);
}

Cycle MemoryHierarchy::next_event(Cycle now) const {
  // Only a store or a drain moves drain_due(), and a store comes from a
  // cycle the caller steps anyway.
  Cycle next = std::min(l2_.next_event(now), drain_due());
  if (strikes_) next = std::min(next, strikes_->next_event());
  return std::max(now, next);
}

void MemoryHierarchy::flush_write_buffer(Cycle now) {
  while (!wbuf_.empty()) drain_front(now);
}

void MemoryHierarchy::reset_stats(Cycle now) {
  if (capture_) capture_->on_stats_reset(now);
  bus_.reset_stats();
  l1i_.stats() = {};
  l1d_.stats() = {};
  wbuf_.reset_stats();
  itlb_.reset_stats();
  dtlb_.reset_stats();
  if (strikes_) strikes_->reset_stats();
  l2_.reset_metrics(now);
}

}  // namespace aeep::sim
