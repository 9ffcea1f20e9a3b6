// The aeep_served wire protocol: length-prefixed JSON frames.
//
//   Frame := payload_bytes u32 (little-endian) | payload (UTF-8 JSON)
//
// Every request and reply is one frame holding one JSON object. Requests
// carry a "type" ("ping", "submit", "status", "result", "run", "stats",
// "traces", "health", "drain");
// replies always carry "ok" (bool) and, when ok is false, a stable "error"
// wire code from error.hpp plus a human "message".
//
// A job descriptor is one flat object: the cell's options document
// (sim::options_to_json — every semantic sim::ExperimentOptions field under
// its struct name: scheme, cleaning_interval, cleaning_policy,
// decay_threshold, ecc_entries_per_set, instructions, warmup_instructions,
// seed, maintain_codes, frontend, strikes_enabled, strike_lambda,
// strike_rate_scale, strike_double_bit_fraction, stuck_faults, due_policy,
// retirement_threshold, max_refetch_retries) plus its envelope: benchmark,
// trace (a registered trace name) and timeout_ms. It is the same document
// the result store keys the cell by (store/digest.hpp), so a worker runs
// exactly the cell the coordinator keyed. Location fields (trace_dir,
// trace_path, capture_path) never cross: clients name traces, never paths.
// The warm-up key is warmup_instructions (it was `warmup` before the
// descriptor became the options document). Everything the paper fixes
// (Table-1 geometry) stays fixed server-side, so a request cannot ask for
// a machine the reproduction does not model.
#pragma once

#include <optional>
#include <string>

#include "common/json.hpp"
#include "server/error.hpp"
#include "server/socket.hpp"
#include "sim/experiment.hpp"

namespace aeep::server {

/// Frames larger than this are a protocol violation, not a malloc request:
/// a result frame is a few KB; nothing legitimate approaches a megabyte.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Serialise `doc` into one frame. Throws ServerError(kIo / kProtocol).
void send_frame(Socket& sock, const JsonValue& doc);

/// Read one frame. Returns nullopt iff the peer closed cleanly between
/// frames; throws ServerError(kProtocol) on an oversized prefix or
/// unparsable payload, ServerError(kIo) on socket trouble / timeout.
std::optional<JsonValue> recv_frame(Socket& sock, int timeout_ms = -1);

/// One experiment job as it crosses the wire: the cell's options plus the
/// envelope. `trace` names a server-side registered .aeept file (defaults
/// to the benchmark's name) and is only read when frontend == kTrace; the
/// server resolves it into the inherited trace_path.
struct JobSpec : sim::ExperimentOptions {
  std::string benchmark = "gzip";
  std::string trace;   ///< registered trace name; empty = benchmark
  u64 timeout_ms = 0;  ///< per-job wall clock; 0 = server default

  /// The registered name a kTrace job replays.
  std::string trace_name() const {
    return trace.empty() ? benchmark : trace;
  }

  bool operator==(const JobSpec&) const = default;
};

/// JSON <-> JobSpec. from_json throws ServerError(kBadRequest) naming the
/// offending field for unknown keys, kind-mismatched values (envelope
/// included), values that do not fit their field, unknown enum spellings,
/// stuck-fault sites outside the Table-1 L2, an empty benchmark and zero
/// instructions.
JsonValue job_spec_to_json(const JobSpec& spec);
JobSpec job_spec_from_json(const JsonValue& doc);

/// The JobSpec that makes a remote worker run exactly this local
/// experiment: how the fabric coordinator ships a sim::SweepJob. Lossless
/// through job_spec_to_json / job_spec_from_json except for the location
/// fields, which the worker resolves itself.
JobSpec job_spec_from_options(const std::string& benchmark,
                              const sim::ExperimentOptions& options);

/// Reply scaffolding: {"ok": true, "type": <type>} / {"ok": false,
/// "error": <wire code>, "message": <text>}.
JsonValue ok_reply(const std::string& type);
JsonValue error_reply(ServerErrorKind kind, const std::string& message);

/// Raise a not-ok reply as the typed error it carries; pass through ok
/// replies. Client-side glue.
const JsonValue& check_reply(const JsonValue& reply);

}  // namespace aeep::server
