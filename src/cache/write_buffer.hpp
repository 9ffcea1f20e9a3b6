// Fully-associative coalescing write buffer between the write-through L1D
// and the L2 (16 entries in the paper's setup, per Skadron & Clark).
//
// Stores enqueue at 8-byte-word granularity and are grouped into entries at
// L2-line granularity; a store to a line already buffered coalesces into
// the existing entry (no extra L2 traffic). Each entry carries the written
// words and a valid mask so the drain applies exactly the stored bytes.
// Timing (when entries drain, full-buffer stalls) is owned by the memory
// hierarchy controller; this class is the logical CAM + FIFO.
//
// Storage is struct-of-arrays: line tags, word masks, and enqueue stamps
// live in dense parallel arrays over a fixed ring of `capacity` slots, and
// the line payloads sit in one flat `capacity * words_per_line` block. The
// CAM lookup in push() therefore walks a contiguous 8-byte-stride tag array
// instead of pointer-chasing a deque of entry structs, and the hierarchy's
// age check reads the stamp column without a parallel side queue.
#pragma once

#include <span>
#include <vector>

#include "common/fields.hpp"
#include "common/types.hpp"

namespace aeep::cache {

/// Materialised entry, handed out by pop() for the drain path. The words
/// vector is recyclable via recycle() so steady-state drains stay
/// allocation-free.
struct WriteBufferEntry {
  Addr line = 0;            ///< line base address (L2 line granularity)
  u64 word_mask = 0;        ///< bit w set: words[w] holds store data
  std::vector<u64> words;   ///< line_bytes/8 slots
};

/// Zero-copy read-only view of a buffered entry (valid until the next
/// mutating call on the buffer).
struct WriteBufferView {
  Addr line = 0;
  u64 word_mask = 0;
  std::span<const u64> words;
  Cycle stamp = 0;  ///< cycle the entry was created (for age-based drains)
};

struct WriteBufferStats {
  u64 stores = 0;      ///< stores accepted (new entry or coalesced)
  u64 coalesced = 0;   ///< stores merged into an existing entry
  u64 drains = 0;      ///< entries handed to L2
  u64 full_events = 0; ///< stores that found the buffer full (before retry)
  u64 free_list_peak = 0;  ///< high-water mark of recycled line storage

  bool operator==(const WriteBufferStats&) const = default;
};

void visit_fields(SameOrConst<WriteBufferStats> auto& s, auto&& visit) {
  visit("stores", s.stores);
  visit("coalesced", s.coalesced);
  visit("drains", s.drains);
  visit("full_events", s.full_events);
  visit("free_list_peak", s.free_list_peak);
}

class WriteBuffer {
 public:
  /// Hard ceiling on recycled line-storage vectors, independent of the
  /// configured entry count: a misconfigured 4096-entry buffer must not
  /// turn the recycling optimisation into an unbounded memory sink.
  static constexpr std::size_t kFreeListBound = 64;

  explicit WriteBuffer(unsigned entries = 16, unsigned line_bytes = 64);

  enum class PushResult { kNew, kCoalesced, kFull };

  /// Present a store of `value` to (8-byte-aligned) `addr`. `now` stamps a
  /// freshly created entry (coalescing keeps the original stamp, matching
  /// the drain-on-age policy which watches the oldest store of the line).
  PushResult push(Addr addr, u64 value, Cycle now = 0);

  /// Oldest entry, without removing it. Buffer must be non-empty.
  WriteBufferView front() const { return view(0); }

  /// The i-th oldest entry (i < size()); used by the invariant auditor to
  /// check CAM consistency.
  WriteBufferView view(std::size_t i) const;

  /// Enqueue cycle of the oldest entry. Buffer must be non-empty.
  Cycle front_stamp() const;

  /// Remove the oldest entry after draining it to L2. The returned entry's
  /// words vector comes from the recycle pool when one is available.
  WriteBufferEntry pop();

  /// Return a drained entry's storage for reuse. Steady state then runs
  /// with zero heap allocations: pop() takes a recycled words vector when
  /// one is available instead of allocating a fresh one.
  void recycle(WriteBufferEntry&& e);

  bool full() const { return count_ >= capacity_; }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  unsigned capacity() const { return capacity_; }
  unsigned line_bytes() const { return line_bytes_; }

  /// Recycled storage currently held; never exceeds
  /// min(capacity(), kFreeListBound).
  std::size_t free_list_size() const { return free_words_.size(); }
  /// The bound recycle() enforces for this buffer.
  std::size_t free_list_bound() const {
    return capacity_ < kFreeListBound ? capacity_ : kFreeListBound;
  }

  const WriteBufferStats& stats() const { return stats_; }
  /// Drop all entries and zero statistics.
  void reset();
  /// Zero statistics only (entries stay).
  void reset_stats() { stats_ = {}; }

 private:
  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(line_bytes_ - 1); }
  unsigned words_per_line() const { return line_bytes_ / 8; }
  /// Ring slot of the i-th oldest entry.
  std::size_t slot_of(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s >= capacity_ ? s - capacity_ : s;
  }

  unsigned capacity_;
  unsigned line_bytes_;
  std::size_t head_ = 0;   ///< ring slot of the oldest entry
  std::size_t count_ = 0;  ///< live entries
  // Struct-of-arrays columns, indexed by ring slot.
  std::vector<Addr> lines_;    ///< line tags (the CAM)
  std::vector<u64> masks_;     ///< per-entry valid-word masks
  std::vector<Cycle> stamps_;  ///< per-entry enqueue cycles
  std::vector<u64> words_;     ///< flat payload, capacity * words_per_line
  std::vector<std::vector<u64>> free_words_;  ///< recycled pop() storage
  WriteBufferStats stats_;
};

}  // namespace aeep::cache
