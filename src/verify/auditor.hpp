// Runtime invariant auditor for a ProtectedL2.
//
// Re-derives the paper's §3.2/§3.3 invariants from scratch after every
// operation (or every N, configurable) and reports any line where the
// incremental state the controller and scheme maintain has drifted from
// the ground truth:
//
//   - written bit set  =>  the line is dirty (§3.2: the written bit only
//     annotates dirty lines between cleaning inspections);
//   - a dirty line is always ECC-covered (the core protection claim);
//   - SharedEccArrayScheme: at most `entries_per_set` dirty lines per set,
//     and the entry map agrees with the dirty bits in both directions;
//   - stored parity / ECC check bytes match recomputation over the live
//     payload (codes are never stale);
//   - clean lines are byte-identical to the memory store (so parity's
//     re-fetch repair story is actually available);
//   - retired ways never hold valid lines;
//   - the cache's incremental dirty_count() matches a full recount.
//
// Violations carry (set, way, op-sequence) context so a failing run can be
// replayed and trimmed. The auditor attaches to the L2's audit hook and
// never mutates any state it inspects.
#pragma once

#include <string>
#include <vector>

#include "cache/write_buffer.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"
#include "protect/protected_l2.hpp"

namespace aeep::verify {

struct AuditorConfig {
  /// Audit on every Nth operation observed through the hook (1 = every op,
  /// 0 = only when audit() is called explicitly).
  unsigned check_every = 1;
  /// Violations kept with full context; the rest are only counted.
  std::size_t max_recorded = 64;
};

struct Violation {
  std::string rule;    ///< stable identifier, e.g. "dirty-per-set-exceeds-k"
  u64 set = 0;
  unsigned way = 0;
  u64 op_seq = 0;      ///< operations observed when the audit fired
  std::string detail;  ///< human-readable specifics

  std::string to_string() const;
};

class Auditor {
 public:
  explicit Auditor(protect::ProtectedL2& l2, AuditorConfig config = {});
  ~Auditor();

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Run every check now; returns the number of new violations found.
  u64 audit();

  /// Consistency of a write buffer feeding this L2 (coalescing CAM rules:
  /// line-aligned, in-range masks, no duplicate lines, sized payloads).
  /// Returns new violations found.
  u64 audit_write_buffer(const cache::WriteBuffer& wbuf);

  u64 ops_seen() const { return ops_seen_; }
  u64 audits_run() const { return audits_run_; }
  u64 total_violations() const { return total_violations_; }
  bool clean() const { return total_violations_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Multi-line report of everything recorded (empty string when clean).
  std::string report() const;

 private:
  void on_op(Cycle now);
  void add(std::string rule, u64 set, unsigned way, std::string detail);
  void audit_line(u64 set, unsigned way);
  void audit_shared_scheme();

  protect::ProtectedL2* l2_;
  AuditorConfig config_;
  ecc::ParityCodec parity_;
  ecc::SecdedCodec secded_;
  u64 ops_seen_ = 0;
  u64 audits_run_ = 0;
  u64 total_violations_ = 0;
  u64 found_this_audit_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace aeep::verify
