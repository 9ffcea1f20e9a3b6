// Protection-scheme strategy interface for the L2 cache.
//
// A scheme owns the stored check bits (parity, ECC, the shared ECC array),
// one byte per 64-bit data word, and the rules that keep them consistent
// with the cache payload.
// The ProtectedL2 controller calls the hooks below at the right points of
// the access path. Timing (bus, latencies) stays in the controller; a
// scheme's only timing influence is forcing write-backs via before_dirty
// (the §3.3 ECC-entry eviction).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "cache/cache.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"
#include "mem/memory_store.hpp"

namespace aeep::protect {

/// What the read-validation path concluded for one line access.
enum class ReadOutcome {
  kOk,             ///< codes clean
  kCorrected,      ///< ECC corrected one or more single-bit word errors
  kRefetched,      ///< clean line failed parity; re-fetched from memory
  kUncorrectable,  ///< detected error the scheme cannot repair (DUE)
};

const char* to_string(ReadOutcome o);

struct ReadCheck {
  ReadOutcome outcome = ReadOutcome::kOk;
  unsigned words_corrected = 0;
  unsigned words_detected = 0;
};

/// A line the scheme needs written back before a new line may become dirty.
struct ForcedWriteback {
  u64 set = 0;
  unsigned way = 0;
  Addr addr = kNoAddr;
};

class ProtectionScheme {
 public:
  explicit ProtectionScheme(cache::Cache& cache) : cache_(&cache) {}
  virtual ~ProtectionScheme() = default;

  ProtectionScheme(const ProtectionScheme&) = delete;
  ProtectionScheme& operator=(const ProtectionScheme&) = delete;

  virtual std::string name() const = 0;

  // --- State-maintenance hooks (called by ProtectedL2) ------------------
  /// A clean line was installed at (set, way); payload is final.
  virtual void on_fill(u64 set, unsigned way) = 0;

  /// A write is about to make (set, way) dirty (or write an already-dirty
  /// line). If the scheme must first clean another line of the set to free
  /// an ECC entry, it returns that line; the controller writes it back,
  /// calls on_writeback for it, and asks again.
  virtual std::optional<ForcedWriteback> before_dirty(u64 /*set*/,
                                                      unsigned /*way*/) {
    return std::nullopt;
  }

  /// Payload words in `word_mask` were just updated on a (now dirty) line;
  /// refresh the stored codes.
  virtual void on_write_applied(u64 set, unsigned way, u64 word_mask) = 0;

  /// The line was written back and is now clean (replacement drain,
  /// cleaning, or ECC-entry eviction).
  virtual void on_writeback(u64 set, unsigned way) = 0;

  /// The line is leaving the cache (its codes become meaningless).
  virtual void on_evict(u64 set, unsigned way) = 0;

  // --- Validation path ---------------------------------------------------
  /// Decode the stored codes for a line, repairing what the scheme can:
  /// single-bit ECC errors are corrected in place; a clean line failing
  /// parity is re-fetched from `memory`. Uncorrectable damage is reported.
  virtual ReadCheck check_read(u64 set, unsigned way,
                               const mem::MemoryStore& memory) = 0;

  // --- Fault-injection access to stored code bits -------------------------
  /// Stored parity codes for a line, one byte per data word holding the
  /// 1-bit code in bit 0; empty if the scheme keeps no parity.
  virtual std::span<u8> parity_words(u64 set, unsigned way) = 0;
  /// Stored ECC codes for a line, one byte per data word holding its 8
  /// SECDED check bits; empty if the line currently has no ECC (clean line
  /// under the proposed scheme).
  virtual std::span<u8> ecc_words(u64 set, unsigned way) = 0;

  /// Zero scheme-level metrics (ECC-entry eviction counts) while keeping
  /// code state — part of the ProtectedL2::reset_metrics chain, so warm-up
  /// does not leak into measured counters.
  virtual void reset_metrics() {}

 protected:
  cache::Cache& cache() { return *cache_; }
  const cache::Cache& cache() const { return *cache_; }
  const ecc::SecdedCodec& secded() const { return secded_; }
  const ecc::ParityCodec& parity_codec() const { return parity_; }

  /// The read outcome once correct_line has repaired an ECC-protected
  /// line: a word the code detected but could not repair is a DUE.
  static ReadCheck ecc_read_check(const ecc::LineRepair& fix) {
    ReadCheck out{ReadOutcome::kOk, fix.words_corrected, fix.words_detected};
    if (fix.words_detected > 0)
      out.outcome = ReadOutcome::kUncorrectable;
    else if (fix.words_corrected > 0)
      out.outcome = ReadOutcome::kCorrected;
    return out;
  }

  std::size_t line_slot(u64 set, unsigned way) const {
    return static_cast<std::size_t>(set) * cache_->geometry().ways + way;
  }

 private:
  cache::Cache* cache_;
  ecc::SecdedCodec secded_;
  ecc::ParityCodec parity_;
};

}  // namespace aeep::protect
