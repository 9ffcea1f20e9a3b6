#include "sim/result_json.hpp"

namespace aeep::sim {

namespace {

constexpr u64 kCodecVersion = 1;

JsonValue cache_stats_json(const cache::CacheStats& s) {
  JsonValue j = JsonValue::object();
  j.set("reads", JsonValue::number(s.reads));
  j.set("read_hits", JsonValue::number(s.read_hits));
  j.set("writes", JsonValue::number(s.writes));
  j.set("write_hits", JsonValue::number(s.write_hits));
  j.set("fills", JsonValue::number(s.fills));
  j.set("evictions", JsonValue::number(s.evictions));
  j.set("dirty_evictions", JsonValue::number(s.dirty_evictions));
  return j;
}

cache::CacheStats cache_stats_from(const JsonValue& j) {
  cache::CacheStats s;
  s.reads = j.get_u64("reads");
  s.read_hits = j.get_u64("read_hits");
  s.writes = j.get_u64("writes");
  s.write_hits = j.get_u64("write_hits");
  s.fills = j.get_u64("fills");
  s.evictions = j.get_u64("evictions");
  s.dirty_evictions = j.get_u64("dirty_evictions");
  return s;
}

JsonValue tlb_stats_json(const cpu::TlbStats& s) {
  JsonValue j = JsonValue::object();
  j.set("accesses", JsonValue::number(s.accesses));
  j.set("misses", JsonValue::number(s.misses));
  return j;
}

cpu::TlbStats tlb_stats_from(const JsonValue& j) {
  cpu::TlbStats s;
  s.accesses = j.get_u64("accesses");
  s.misses = j.get_u64("misses");
  return s;
}

}  // namespace

JsonValue run_result_json(const RunResult& r) {
  JsonValue m = JsonValue::object();
  m.set("ipc", JsonValue::number(r.ipc()));
  m.set("committed", JsonValue::number(r.core.committed));
  m.set("cycles", JsonValue::number(r.core.cycles));
  m.set("avg_dirty_fraction", JsonValue::number(r.avg_dirty_fraction));
  m.set("avg_dirty_lines", JsonValue::number(r.avg_dirty_lines));
  m.set("peak_dirty_lines", JsonValue::number(r.peak_dirty_lines));
  m.set("wb_replacement", JsonValue::number(r.wb_replacement));
  m.set("wb_cleaning", JsonValue::number(r.wb_cleaning));
  m.set("wb_ecc", JsonValue::number(r.wb_ecc));
  m.set("wb_total", JsonValue::number(r.wb_total()));
  m.set("wb_per_kls", JsonValue::number(r.wb_per_ls() * 1000.0));
  m.set("l2_accesses", JsonValue::number(r.l2.accesses()));
  m.set("l2_misses", JsonValue::number(r.l2.misses()));
  m.set("bus_bytes_written", JsonValue::number(r.bus.bytes_written));
  return m;
}

JsonValue run_result_to_json(const RunResult& r) {
  JsonValue j = JsonValue::object();
  j.set("codec", JsonValue::number(kCodecVersion));
  j.set("benchmark", JsonValue::string(r.benchmark));
  j.set("floating_point", JsonValue::boolean(r.floating_point));

  JsonValue core = JsonValue::object();
  core.set("cycles", JsonValue::number(r.core.cycles));
  core.set("committed", JsonValue::number(r.core.committed));
  core.set("loads", JsonValue::number(r.core.loads));
  core.set("stores", JsonValue::number(r.core.stores));
  core.set("branches", JsonValue::number(r.core.branches));
  core.set("commit_stall_wb_full",
           JsonValue::number(r.core.commit_stall_wb_full));
  core.set("fetch_stall_cycles", JsonValue::number(r.core.fetch_stall_cycles));
  JsonValue bp = JsonValue::object();
  bp.set("lookups", JsonValue::number(r.core.bp.lookups));
  bp.set("dir_mispredicts", JsonValue::number(r.core.bp.dir_mispredicts));
  bp.set("target_mispredicts",
         JsonValue::number(r.core.bp.target_mispredicts));
  core.set("bp", std::move(bp));
  j.set("core", std::move(core));

  j.set("avg_dirty_fraction", JsonValue::number(r.avg_dirty_fraction));
  j.set("avg_dirty_lines", JsonValue::number(r.avg_dirty_lines));
  j.set("peak_dirty_lines", JsonValue::number(r.peak_dirty_lines));
  j.set("wb_replacement", JsonValue::number(r.wb_replacement));
  j.set("wb_cleaning", JsonValue::number(r.wb_cleaning));
  j.set("wb_ecc", JsonValue::number(r.wb_ecc));

  j.set("l1i", cache_stats_json(r.l1i));
  j.set("l1d", cache_stats_json(r.l1d));
  j.set("l2", cache_stats_json(r.l2));

  JsonValue wbuf = JsonValue::object();
  wbuf.set("stores", JsonValue::number(r.wbuf.stores));
  wbuf.set("coalesced", JsonValue::number(r.wbuf.coalesced));
  wbuf.set("drains", JsonValue::number(r.wbuf.drains));
  wbuf.set("full_events", JsonValue::number(r.wbuf.full_events));
  wbuf.set("free_list_peak", JsonValue::number(r.wbuf.free_list_peak));
  j.set("wbuf", std::move(wbuf));

  JsonValue bus = JsonValue::object();
  bus.set("reads", JsonValue::number(r.bus.reads));
  bus.set("writes", JsonValue::number(r.bus.writes));
  bus.set("bytes_read", JsonValue::number(r.bus.bytes_read));
  bus.set("bytes_written", JsonValue::number(r.bus.bytes_written));
  bus.set("busy_cycles", JsonValue::number(r.bus.busy_cycles));
  bus.set("queue_delay_cycles", JsonValue::number(r.bus.queue_delay_cycles));
  j.set("bus", std::move(bus));

  j.set("itlb", tlb_stats_json(r.itlb));
  j.set("dtlb", tlb_stats_json(r.dtlb));

  JsonValue rec = JsonValue::object();
  rec.set("checks", JsonValue::number(r.recovery.checks));
  rec.set("errors", JsonValue::number(r.recovery.errors));
  rec.set("corrected", JsonValue::number(r.recovery.corrected));
  rec.set("refetched", JsonValue::number(r.recovery.refetched));
  rec.set("retries", JsonValue::number(r.recovery.retries));
  rec.set("retry_exhausted", JsonValue::number(r.recovery.retry_exhausted));
  rec.set("due_events", JsonValue::number(r.recovery.due_events));
  rec.set("lines_dropped", JsonValue::number(r.recovery.lines_dropped));
  rec.set("dirty_lines_lost", JsonValue::number(r.recovery.dirty_lines_lost));
  rec.set("lines_poisoned", JsonValue::number(r.recovery.lines_poisoned));
  rec.set("poison_reads", JsonValue::number(r.recovery.poison_reads));
  rec.set("poisoned_writebacks",
          JsonValue::number(r.recovery.poisoned_writebacks));
  rec.set("panics", JsonValue::number(r.recovery.panics));
  rec.set("ways_retired", JsonValue::number(r.recovery.ways_retired));
  rec.set("stall_cycles", JsonValue::number(r.recovery.stall_cycles));
  j.set("recovery", std::move(rec));

  JsonValue st = JsonValue::object();
  st.set("strikes", JsonValue::number(r.strikes.strikes));
  st.set("bits_flipped", JsonValue::number(r.strikes.bits_flipped));
  st.set("data_hits", JsonValue::number(r.strikes.data_hits));
  st.set("parity_hits", JsonValue::number(r.strikes.parity_hits));
  st.set("ecc_hits", JsonValue::number(r.strikes.ecc_hits));
  st.set("absorbed", JsonValue::number(r.strikes.absorbed));
  st.set("stuck_reasserts", JsonValue::number(r.strikes.stuck_reasserts));
  j.set("strikes", std::move(st));

  j.set("retired_ways", JsonValue::number(r.retired_ways));
  j.set("retired_capacity_fraction",
        JsonValue::number(r.retired_capacity_fraction));
  j.set("panicked", JsonValue::boolean(r.panicked));
  return j;
}

std::optional<RunResult> run_result_from_json(const JsonValue& j) {
  if (!j.is_object() || j.get_u64("codec") != kCodecVersion)
    return std::nullopt;
  // The kind-mismatch-tolerant getters make a partially missing document
  // decode to zeros; require the load-bearing sub-objects so a truncated
  // or foreign document reads as a miss, not as an all-zero result.
  const JsonValue* core = j.find("core");
  const JsonValue* recovery = j.find("recovery");
  if (!core || !core->is_object() || !recovery || !recovery->is_object())
    return std::nullopt;

  RunResult r;
  r.benchmark = j.get_string("benchmark");
  r.floating_point = j.get_bool("floating_point");

  r.core.cycles = core->get_u64("cycles");
  r.core.committed = core->get_u64("committed");
  r.core.loads = core->get_u64("loads");
  r.core.stores = core->get_u64("stores");
  r.core.branches = core->get_u64("branches");
  r.core.commit_stall_wb_full = core->get_u64("commit_stall_wb_full");
  r.core.fetch_stall_cycles = core->get_u64("fetch_stall_cycles");
  if (const JsonValue* bp = core->find("bp")) {
    r.core.bp.lookups = bp->get_u64("lookups");
    r.core.bp.dir_mispredicts = bp->get_u64("dir_mispredicts");
    r.core.bp.target_mispredicts = bp->get_u64("target_mispredicts");
  }

  r.avg_dirty_fraction = j.get_double("avg_dirty_fraction");
  r.avg_dirty_lines = j.get_u64("avg_dirty_lines");
  r.peak_dirty_lines = j.get_u64("peak_dirty_lines");
  r.wb_replacement = j.get_u64("wb_replacement");
  r.wb_cleaning = j.get_u64("wb_cleaning");
  r.wb_ecc = j.get_u64("wb_ecc");

  if (const JsonValue* c = j.find("l1i")) r.l1i = cache_stats_from(*c);
  if (const JsonValue* c = j.find("l1d")) r.l1d = cache_stats_from(*c);
  if (const JsonValue* c = j.find("l2")) r.l2 = cache_stats_from(*c);

  if (const JsonValue* w = j.find("wbuf")) {
    r.wbuf.stores = w->get_u64("stores");
    r.wbuf.coalesced = w->get_u64("coalesced");
    r.wbuf.drains = w->get_u64("drains");
    r.wbuf.full_events = w->get_u64("full_events");
    r.wbuf.free_list_peak = w->get_u64("free_list_peak");
  }

  if (const JsonValue* b = j.find("bus")) {
    r.bus.reads = b->get_u64("reads");
    r.bus.writes = b->get_u64("writes");
    r.bus.bytes_read = b->get_u64("bytes_read");
    r.bus.bytes_written = b->get_u64("bytes_written");
    r.bus.busy_cycles = b->get_u64("busy_cycles");
    r.bus.queue_delay_cycles = b->get_u64("queue_delay_cycles");
  }

  if (const JsonValue* t = j.find("itlb")) r.itlb = tlb_stats_from(*t);
  if (const JsonValue* t = j.find("dtlb")) r.dtlb = tlb_stats_from(*t);

  r.recovery.checks = recovery->get_u64("checks");
  r.recovery.errors = recovery->get_u64("errors");
  r.recovery.corrected = recovery->get_u64("corrected");
  r.recovery.refetched = recovery->get_u64("refetched");
  r.recovery.retries = recovery->get_u64("retries");
  r.recovery.retry_exhausted = recovery->get_u64("retry_exhausted");
  r.recovery.due_events = recovery->get_u64("due_events");
  r.recovery.lines_dropped = recovery->get_u64("lines_dropped");
  r.recovery.dirty_lines_lost = recovery->get_u64("dirty_lines_lost");
  r.recovery.lines_poisoned = recovery->get_u64("lines_poisoned");
  r.recovery.poison_reads = recovery->get_u64("poison_reads");
  r.recovery.poisoned_writebacks = recovery->get_u64("poisoned_writebacks");
  r.recovery.panics = recovery->get_u64("panics");
  r.recovery.ways_retired = recovery->get_u64("ways_retired");
  r.recovery.stall_cycles = recovery->get_u64("stall_cycles");

  if (const JsonValue* s = j.find("strikes")) {
    r.strikes.strikes = s->get_u64("strikes");
    r.strikes.bits_flipped = s->get_u64("bits_flipped");
    r.strikes.data_hits = s->get_u64("data_hits");
    r.strikes.parity_hits = s->get_u64("parity_hits");
    r.strikes.ecc_hits = s->get_u64("ecc_hits");
    r.strikes.absorbed = s->get_u64("absorbed");
    r.strikes.stuck_reasserts = s->get_u64("stuck_reasserts");
  }

  r.retired_ways = j.get_u64("retired_ways");
  r.retired_capacity_fraction = j.get_double("retired_capacity_fraction");
  r.panicked = j.get_bool("panicked");
  return r;
}

}  // namespace aeep::sim
