// On-disk format of the access traces (the ".aeept" files).
//
// Everything the paper's protection metrics need — dirty ratio, the three
// write-back classes, shared-ECC conflicts — is a function of the access
// stream the core presents to the memory hierarchy: the ordered sequence of
// instruction fetches, loads and accepted stores with their issue cycles.
// A trace records exactly that stream (the L1-level events), so a replay
// can re-drive the real L1/write-buffer/L2 models without paying for the
// out-of-order core.
//
// A captured trace also records the L2-side stream: every fill the
// hierarchy issued on an L1 miss, every write-buffer drain with its words,
// and the statistics reset. The L1 side (L1s, TLBs, write buffer) never
// reads L2 state — a drain charges the L2 port a constant hit latency — so
// that stream is the same under every L2 scheme, cleaning interval, policy
// and codes setting, and a replay under the capture's L1 side can drive the
// protected L2 from it alone. The header's L1-side digest names the L1 side
// that produced it.
//
// Layout (v2; all integers little-endian):
//
//   File    := Header (Chunk | L2Chunk)* Footer
//   Header  := magic u32 ("AEL2") | version u32 | line_bytes u32 | flags u32
//              | l1_side_digest u64
//   Chunk   := tag u8 (kDataChunkTag)
//              payload_bytes u32 | event_count u32 | crc32(payload) u32
//              payload
//   L2Chunk := tag u8 (kL2ChunkTag)
//              payload_bytes u32 | op_count u32 | crc32(payload) u32
//              payload
//   Footer  := tag u8 (kFooterTag)
//              payload_bytes u32 | crc32(payload) u32
//              payload (varints: end_tick, committed, loads, stores, events,
//                       l2_ops, then with kHasL2Stream the L1-side stats:
//                       l1i and l1d (reads, read_hits, writes, write_hits,
//                       fills, evictions, dirty_evictions), itlb and dtlb
//                       (accesses, misses), wbuf (stores, coalesced,
//                       drains, full_events, free_list_peak))
//
// flags bit 0 (kHasL2Stream) says the file carries an L2-side stream; only
// then may L2 chunks appear, and only then is l1_side_digest meaningful.
// v1 files (still read) have a 16-byte header — a reserved u32 in place of
// flags, no digest — no L2 chunks, and a footer that ends at `events`.
//
// A data-chunk payload is a run of events. Each event is one kind byte
// followed by a varint tick delta and (for accesses) a zigzag-varint
// address delta; stores append the stored 64-bit word as a varint. An
// L2-chunk payload is a run of ops: a kind byte and a varint tick delta,
// then for a fill a varint L2 time offset and a zigzag-varint line delta,
// for a drain a zigzag-varint line delta, a varint word mask and one varint
// per mask bit (lowest word first). Delta state (previous tick / previous
// address) resets at every chunk boundary, so each chunk decodes
// independently and a CRC failure pinpoints the damaged region. The two
// kinds of chunk interleave in the order the writer filled them. The footer
// doubles as the end-of-stream marker: a file without one is reported as
// truncated, never silently accepted.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "cache/write_buffer.hpp"
#include "common/types.hpp"
#include "cpu/tlb.hpp"

namespace aeep::trace {

inline constexpr u32 kTraceMagic = 0x324C4541;  // "AEL2"
inline constexpr u32 kTraceVersion = 2;
/// The L1-events-only format, still read.
inline constexpr u32 kTraceVersion1 = 1;

inline constexpr u8 kDataChunkTag = 0x01;
inline constexpr u8 kFooterTag = 0x02;
inline constexpr u8 kL2ChunkTag = 0x03;

/// Header flag: the file carries an L2-side stream.
inline constexpr u32 kHasL2Stream = 1;

/// Events (and L2 ops) per chunk the writer targets (format allows any
/// count >= 1).
inline constexpr u32 kDefaultChunkEvents = 4096;

/// What one trace record describes.
enum class EventKind : u8 {
  kFetch = 0,      ///< instruction-block fetch (fills through the L2)
  kLoad = 1,       ///< data load presented to the L1D
  kStore = 2,      ///< store accepted by the write buffer (carries the word)
  kStatsReset = 3, ///< warm-up boundary: statistics were zeroed here
};

/// One decoded trace record.
struct TraceEvent {
  EventKind kind = EventKind::kFetch;
  Cycle tick = 0;  ///< cycle the access was issued (monotonic non-decreasing)
  Addr addr = 0;   ///< accessed address (0 for kStatsReset)
  u64 value = 0;   ///< stored word (kStore only)

  bool operator==(const TraceEvent&) const = default;
};

/// What one L2-side op describes: a call the hierarchy made into the L2.
enum class L2OpKind : u8 {
  kFill = 0,        ///< ProtectedL2::read on an L1I or L1D miss
  kDrain = 1,       ///< ProtectedL2::write of a write-buffer entry
  kStatsReset = 2,  ///< warm-up boundary: statistics were zeroed here
};

/// One decoded L2-side op.
struct L2Op {
  L2OpKind kind = L2OpKind::kFill;
  Cycle tick = 0;    ///< hierarchy cycle the op ran in (non-decreasing)
  /// kFill: the L2 saw the read at tick + offset (the L1 latency plus the
  /// TLB penalty); 0 otherwise, as a drain runs at its cycle.
  Cycle offset = 0;
  Addr line = 0;     ///< L1 line (fill) or L2 line (drain); 0 for a reset
  u64 word_mask = 0; ///< kDrain: bit w set means word w of the line is written
  std::vector<u64> words;  ///< kDrain: the masked words, lowest word first

  bool operator==(const L2Op&) const = default;
};

/// The L1-side statistics a replay of the L2-side stream reports: the
/// capture's, which an L1-level replay reproduces. A snapshot the capture
/// takes once, at the end of the measured phase, so it needs no reset.
// aeep-lint: allow(stats-reset)
struct L1SideStats {
  cache::CacheStats l1i{}, l1d{};
  cpu::TlbStats itlb{}, dtlb{};
  cache::WriteBufferStats wbuf{};

  bool operator==(const L1SideStats&) const = default;
};

/// Call `fn` on every L1SideStats counter in footer order; `Stats` is
/// L1SideStats or const L1SideStats.
template <class Stats, class Fn>
void for_each_counter(Stats& s, Fn&& fn) {
  for (auto* c : {&s.l1i, &s.l1d}) {
    fn(c->reads);
    fn(c->read_hits);
    fn(c->writes);
    fn(c->write_hits);
    fn(c->fills);
    fn(c->evictions);
    fn(c->dirty_evictions);
  }
  for (auto* t : {&s.itlb, &s.dtlb}) {
    fn(t->accesses);
    fn(t->misses);
  }
  fn(s.wbuf.stores);
  fn(s.wbuf.coalesced);
  fn(s.wbuf.drains);
  fn(s.wbuf.full_events);
  fn(s.wbuf.free_list_peak);
}

/// Footer payload: the capture-side run summary. Replays use it to finish
/// the clock at the right cycle and to report the capture's committed-op and
/// load/store counts (needed for per-instruction rates the stream alone
/// cannot reconstruct exactly — squashed wrong-path accesses are in the
/// stream but not in the committed counts).
struct TraceSummary {
  Cycle end_tick = 0;  ///< core cycle the measured run finished at
  u64 committed = 0;   ///< committed micro-ops of the measured phase
  u64 loads = 0;       ///< committed loads of the measured phase
  u64 stores = 0;      ///< committed stores of the measured phase
  u64 events = 0;      ///< total events across all data chunks
  u64 l2_ops = 0;      ///< total ops across all L2 chunks
  L1SideStats l1_side{};  ///< files with an L2-side stream only

  bool operator==(const TraceSummary&) const = default;
};

}  // namespace aeep::trace
