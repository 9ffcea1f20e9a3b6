// Set-associative cache state model.
//
// This class owns tags, status bits (valid / dirty / written), LRU
// state and line payloads. It deliberately contains no timing and no
// protection logic: timing lives in the controllers (src/cpu, src/sim) and
// protection in the policies (src/protect), which manipulate status bits
// through this interface. The `written` bit is the paper's §3.2 addition:
// cleared on fill, set when a line is modified more than once.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cache/geometry.hpp"
#include "common/fields.hpp"
#include "common/types.hpp"

namespace aeep::cache {

struct CacheLineMeta {
  u64 tag = 0;
  bool valid = false;
  bool dirty = false;
  bool written = false;  ///< set on the *second* write since fill (§3.2)
  Cycle stamp = 0;       ///< last use (fill or touch), for LRU
};

struct ProbeResult {
  bool hit = false;
  u64 set = 0;
  unsigned way = 0;
};

/// Description of a line about to be displaced by a fill.
struct Victim {
  bool valid = false;   ///< false: the chosen way was empty
  Addr addr = kNoAddr;  ///< base address of the displaced line
  bool dirty = false;
  bool written = false;
  unsigned way = 0;
};

struct CacheStats {
  u64 reads = 0;
  u64 read_hits = 0;
  u64 writes = 0;
  u64 write_hits = 0;
  u64 fills = 0;
  u64 evictions = 0;
  u64 dirty_evictions = 0;

  u64 accesses() const { return reads + writes; }
  u64 misses() const { return accesses() - read_hits - write_hits; }

  bool operator==(const CacheStats&) const = default;
};

void visit_fields(SameOrConst<CacheStats> auto& s, auto&& visit) {
  visit("reads", s.reads);
  visit("read_hits", s.read_hits);
  visit("writes", s.writes);
  visit("write_hits", s.write_hits);
  visit("fills", s.fills);
  visit("evictions", s.evictions);
  visit("dirty_evictions", s.dirty_evictions);
}

class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry);

  const CacheGeometry& geometry() const { return geom_; }

  /// Tag lookup; no state change.
  ProbeResult probe(Addr addr) const;

  /// Refresh replacement state after a hit.
  void touch(u64 set, unsigned way, Cycle now);

  /// Choose the way a fill of this set would displace (invalid way first,
  /// else the least recently used) and describe the line currently there.
  Victim pick_victim(u64 set);

  /// Install a clean line at (set, way). Caller must have disposed of the
  /// previous occupant (see pick_victim). `payload` may be empty to leave
  /// the data words zeroed. Resets dirty and written bits per §3.2.
  void install(u64 set, unsigned way, Addr addr, Cycle now,
               std::span<const u64> payload = {});

  /// Invalidate a line (drops dirty state; caller handles any write-back).
  void invalidate(u64 set, unsigned way);

  // --- Graceful degradation: way retirement -------------------------------
  /// Fuse off (set, way): the slot never hits and pick_victim never chooses
  /// it again, shrinking the set's effective associativity. The caller must
  /// have disposed of any resident line first (invalidate + write-back).
  /// At least one way per set must stay active (enforced by assert).
  void retire_way(u64 set, unsigned way);
  bool is_retired(u64 set, unsigned way) const {
    return retired_[line_index(set, way)] != 0;
  }
  /// Non-retired ways remaining in one set.
  unsigned active_ways(u64 set) const;
  /// Total retired (set, way) slots across the cache.
  u64 retired_ways() const { return retired_count_; }

  // --- Status-bit management (maintains the dirty-line count). ---
  void mark_dirty(u64 set, unsigned way);
  void clear_dirty(u64 set, unsigned way);
  void set_written(u64 set, unsigned way, bool value);

  const CacheLineMeta& meta(u64 set, unsigned way) const;
  Addr line_addr(u64 set, unsigned way) const;

  /// Current number of dirty lines — the quantity Figures 1/3/4/7 track.
  u64 dirty_count() const { return dirty_count_; }

  /// First dirty way in a set, if any.
  std::optional<unsigned> find_dirty_way(u64 set) const;
  unsigned count_dirty_in_set(u64 set) const;

  std::span<u64> data(u64 set, unsigned way);
  std::span<const u64> data(u64 set, unsigned way) const;

  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  /// Invalidate everything and zero statistics.
  void reset();

 private:
  std::size_t line_index(u64 set, unsigned way) const {
    return static_cast<std::size_t>(set) * geom_.ways + way;
  }
  Addr addr_of(u64 tag, u64 set) const {
    return (tag << tag_shift_) | (set << offset_shift_);
  }

  CacheGeometry geom_;
  // Address slicing, derived once from the validated geometry: probe and
  // install run on every access, and CacheGeometry::num_sets() divides.
  unsigned offset_shift_;
  u64 set_mask_;
  unsigned tag_shift_;
  std::vector<CacheLineMeta> lines_;
  std::vector<u64> payload_;
  std::vector<u8> retired_;  ///< per-slot fuse bits (way retirement)
  u64 retired_count_ = 0;
  u64 dirty_count_ = 0;
  CacheStats stats_;
};

}  // namespace aeep::cache
