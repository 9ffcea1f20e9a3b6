// Set-associative TLB (Table 1: 64-entry 4-way ITLB, 128-entry 4-way DTLB).
// Translation itself is identity (flat physical space); the TLB only adds
// the miss penalty and tracks reach.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace aeep::cpu {

struct TlbConfig {
  unsigned entries = 64;
  unsigned ways = 4;
  unsigned page_bytes = 4096;
  Cycle miss_penalty = 30;  ///< table-walk latency
};

struct TlbStats {
  u64 accesses = 0;
  u64 misses = 0;
  bool operator==(const TlbStats&) const = default;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config = {});

  /// Translate; returns the added latency (0 on hit, miss_penalty on miss)
  /// and installs the entry.
  Cycle access(Addr vaddr, Cycle now);

  const TlbConfig& config() const { return config_; }
  const TlbStats& stats() const { return stats_; }
  /// Invalidate all entries and zero statistics.
  void reset();
  /// Zero statistics only (entries stay warm).
  void reset_stats() { stats_ = {}; }

 private:
  struct Entry {
    Addr vpn = kNoAddr;
    Cycle stamp = 0;
    bool valid = false;
  };

  TlbConfig config_;
  unsigned sets_;
  std::vector<Entry> entries_;
  TlbStats stats_;
};

}  // namespace aeep::cpu
