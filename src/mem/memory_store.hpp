// Functional backing store for main memory.
//
// Timing lives in SplitTransactionBus; this class only holds contents. The
// store is sparse: untouched words read as a deterministic hash of their
// address ("pristine" content), so a clean cache line can always be
// re-fetched and compared bit-for-bit — the property the paper's parity
// protection of clean lines relies on.
//
// Contents are kept per aligned 64-byte block, so an L2 fill or write-back
// costs one hash lookup per block the line spans (one for a Table-1 64-byte
// line) instead of one per word.
#pragma once

#include <array>
#include <span>
#include <unordered_map>

#include "common/types.hpp"

namespace aeep::mem {

class MemoryStore {
 public:
  /// Deterministic pristine content of an aligned 8-byte word.
  static u64 pristine_word(Addr addr);

  /// Read an aligned 8-byte word.
  u64 read_word(Addr addr) const;

  /// Write an aligned 8-byte word.
  void write_word(Addr addr, u64 value);

  /// Read `out.size()` consecutive words starting at an aligned base.
  void read_line(Addr base, std::span<u64> out) const;

  /// Write consecutive words starting at an aligned base.
  void write_line(Addr base, std::span<const u64> in);

  /// Number of distinct words ever written.
  std::size_t dirty_words() const { return dirty_words_; }

 private:
  static constexpr unsigned kBlockShift = 6;
  static constexpr unsigned kBlockWords = 8;

  /// One 64-byte block touched by a write: its words not yet written hold
  /// their pristine content, so a read copies the block as it stands.
  struct Block {
    std::array<u64, kBlockWords> words{};
    u8 written = 0;  ///< bit w: words[w] has been written
  };

  std::unordered_map<Addr, Block> blocks_;  ///< keyed by addr >> kBlockShift
  std::size_t dirty_words_ = 0;
};

}  // namespace aeep::mem
