// Content addressing for sweep cells.
//
// Every cell is a pure function of (benchmark, options, trace file
// contents): SweepRunner's determinism guarantee means two jobs with the
// same canonical JSON and the same trace bytes compute bit-identical
// RunResults, on any worker, in any batch order. A cell's identity is
// therefore the CRC64 of its canonical JSON — the key version, the build
// digest, the benchmark, the options document and, for trace-driven runs,
// the trace file's whole-file CRC64 — so semantically identical jobs
// collide on purpose and any option or trace change misses.
//
// The options document is sim::options_to_json, the same document a wire
// job carries (server/wire.hpp): the key a coordinator files a cell under
// and the job a worker runs cannot disagree on a field. It excludes every
// *location* field (trace_dir, trace_path): two hosts replaying the same
// trace bytes from different paths must share a cache line. capture_path
// makes a job uncacheable — answering it from the store would silently
// skip the side effect the caller asked for.
#pragma once

#include <optional>
#include <string>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace aeep::store {

/// A 64-bit content address, printed as 16 lowercase hex digits.
struct Digest {
  u64 value = 0;

  std::string hex() const;
  /// Inverse of hex(); nullopt unless exactly 16 hex digits.
  static std::optional<Digest> from_hex(const std::string& s);

  bool operator==(const Digest&) const = default;
};

/// The canonical JSON the digest hashes, rendered with dump(0): {"v",
/// "build", "benchmark", "options", "trace_crc64"}. "build" is the
/// simulator's own build_digest() (a new build must miss, never serve
/// results the old code computed); "options" is sim::options_to_json(opts).
/// For kTrace jobs `trace_crc64` carries the trace file's content digest;
/// pass 0 for non-trace jobs (the field is then omitted).
JsonValue canonical_job_json(const std::string& benchmark,
                             const sim::ExperimentOptions& opts,
                             u64 trace_crc64);

/// Content address of one cell, or nullopt when the job is uncacheable:
/// capture_path is set (recording is a side effect), or the trace file a
/// kTrace job replays cannot be read to digest it.
std::optional<Digest> job_digest(const std::string& benchmark,
                                 const sim::ExperimentOptions& opts);

inline std::optional<Digest> job_digest(const sim::SweepJob& job) {
  return job_digest(job.benchmark, job.options);
}

}  // namespace aeep::store
