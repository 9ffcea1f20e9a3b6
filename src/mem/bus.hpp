// Split-transaction off-chip memory bus + DRAM latency model.
//
// Table 1 of the paper: main memory is 8 bytes wide with a 100-cycle access
// latency, and §5.2 assumes a split-transaction bus. Demand reads wait for
// queuing + access latency + line transfer; write-backs are posted — they
// occupy bus bandwidth (delaying later transactions) but nobody waits on
// them. This is exactly the coupling through which the paper's extra
// cleaning/ECC-eviction write-backs can cost IPC.
#pragma once

#include "common/fields.hpp"
#include "common/types.hpp"

namespace aeep::mem {

struct BusConfig {
  unsigned width_bytes = 8;    ///< bytes transferred per bus cycle
  Cycle memory_latency = 100;  ///< DRAM access latency in CPU cycles
};

struct BusStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 bytes_read = 0;
  u64 bytes_written = 0;
  u64 busy_cycles = 0;        ///< cycles the data bus was occupied
  u64 queue_delay_cycles = 0; ///< total cycles transactions waited for the bus

  bool operator==(const BusStats&) const = default;
};

void visit_fields(SameOrConst<BusStats> auto& s, auto&& visit) {
  visit("reads", s.reads);
  visit("writes", s.writes);
  visit("bytes_read", s.bytes_read);
  visit("bytes_written", s.bytes_written);
  visit("busy_cycles", s.busy_cycles);
  visit("queue_delay_cycles", s.queue_delay_cycles);
}

class SplitTransactionBus {
 public:
  explicit SplitTransactionBus(const BusConfig& config = {});

  /// Demand line read. Returns the cycle at which the full line is available
  /// to the requester.
  Cycle read(Cycle now, Addr addr, unsigned bytes);

  /// Posted write-back. Occupies bandwidth; returns the cycle the transfer
  /// finishes (informational — the cache does not stall on it).
  Cycle write(Cycle now, Addr addr, unsigned bytes);

  /// First cycle >= now at which a new transaction could start.
  Cycle next_free(Cycle now) const;

  const BusConfig& config() const { return config_; }
  const BusStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  Cycle occupy(Cycle now, unsigned bytes);

  BusConfig config_;
  BusStats stats_;
  Cycle next_free_ = 0;
};

}  // namespace aeep::mem
