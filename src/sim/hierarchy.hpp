// Memory hierarchy of the paper's baseline machine (§3, Table 1):
// write-through L1 caches protected by parity (not modelled as stored bits —
// L1 recovery is always refetch), a 16-entry coalescing write buffer, and a
// write-back unified L2 behind it carrying the protection scheme under
// study, over a split-transaction bus to main memory.
#pragma once

#include <memory>

#include "cache/cache.hpp"
#include "cache/write_buffer.hpp"
#include "cpu/memory_iface.hpp"
#include "cpu/tlb.hpp"
#include "fault/strike_process.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/protected_l2.hpp"
#include "trace/capture.hpp"

namespace aeep::sim {

struct HierarchyConfig {
  cache::CacheGeometry l1i = cache::kL1IGeometry;
  cache::CacheGeometry l1d = cache::kL1DGeometry;
  Cycle l1_latency = 1;
  protect::L2Config l2{};
  mem::BusConfig bus{};
  cpu::TlbConfig itlb{64, 4, 4096, 30};
  cpu::TlbConfig dtlb{128, 4, 4096, 30};
  unsigned write_buffer_entries = 16;
  /// A write-buffer entry drains once it is this old (coalescing window) or
  /// once occupancy exceeds the watermark — whichever comes first.
  Cycle wb_min_residency = 64;
  unsigned wb_high_watermark = 12;
  /// Online soft-error strikes into the live L2 arrays (off by default).
  fault::StrikeConfig strikes{};
  /// Non-empty: record every L1-level access (fetch / load / accepted
  /// store, with issue cycles) and every call into the L2 (fill, drain)
  /// into this trace file for later replay.
  std::string capture_path{};
};

/// Digest of the fields that shape the stream of fills and drains the L1
/// side hands the L2: the L1 geometries and latency, the TLBs, the write
/// buffer's size and drain policy, and the L2's line size and hit latency
/// (the port occupancy a drain charges). Two configs with one digest turn
/// the same L1-level events into the same L2-side stream.
u64 l1_side_digest(const HierarchyConfig& config);

class MemoryHierarchy final : public cpu::MemoryInterface {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  Cycle fetch(Cycle now, Addr pc) override;
  Cycle load(Cycle now, Addr addr) override;
  bool store(Cycle now, Addr addr, u64 value) override;
  void tick(Cycle now) override;
  /// The earliest of the next write-buffer drain, the L2's next event
  /// (cleaning inspection, queued retirement) and the next strike or
  /// stuck-at re-assert.
  Cycle next_event(Cycle now) const override;

  /// Drain every write-buffer entry (end of run / before fault campaigns).
  void flush_write_buffer(Cycle now);

  protect::ProtectedL2& l2() { return l2_; }
  const protect::ProtectedL2& l2() const { return l2_; }
  /// Non-null iff strikes are enabled in the configuration.
  fault::StrikeProcess* strikes() { return strikes_.get(); }
  const fault::StrikeProcess* strikes() const { return strikes_.get(); }
  /// Non-null iff a capture path is configured.
  trace::CaptureSink* capture() { return capture_.get(); }
  cache::Cache& l1i() { return l1i_; }
  cache::Cache& l1d() { return l1d_; }
  const cache::WriteBuffer& write_buffer() const { return wbuf_; }
  mem::SplitTransactionBus& bus() { return bus_; }
  mem::MemoryStore& memory() { return store_; }
  cpu::Tlb& itlb() { return itlb_; }
  cpu::Tlb& dtlb() { return dtlb_; }
  const HierarchyConfig& config() const { return config_; }

  /// Zero all statistics (not state) — used after cache warm-up.
  void reset_stats(Cycle now);

 private:
  void drain_front(Cycle now);
  /// First cycle tick() drains the write buffer's front (kNever if empty).
  Cycle drain_due() const;

  HierarchyConfig config_;
  std::unique_ptr<trace::CaptureSink> capture_;
  mem::MemoryStore store_;
  mem::SplitTransactionBus bus_;
  protect::ProtectedL2 l2_;
  std::unique_ptr<fault::StrikeProcess> strikes_;
  cache::Cache l1i_;
  cache::Cache l1d_;
  cpu::Tlb itlb_;
  cpu::Tlb dtlb_;
  cache::WriteBuffer wbuf_;  ///< enqueue stamps live in its SoA columns
  Cycle wb_issue_free_ = 0;
};

}  // namespace aeep::sim
