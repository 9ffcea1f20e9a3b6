// The one JSON format for a RunResult, plus the metrics view rendered from
// it at the reporting edge.
//
// run_result_to_json / run_result_from_json are a lossless codec: every
// field of RunResult and its nested stats structs, doubles rendered with
// %.17g (common/json.hpp), so decode(encode(r)) == r exactly. It is what
// the result store persists and what a worker's result reply carries, so
// a cell's RunResult survives any hop — store, wire, fabric — bit-for-bit.
//
// run_result_json is the canonical *metrics* view: one stable,
// insertion-ordered key set derived from a RunResult, rendered only where
// results leave the program — the figure benches' --json reporter, the
// aeep_served reply's "metrics" field, aeep_coord's cells. Keeping it in
// one place is what lets CI diff a bench file against a server reply and
// guarantees a job's metrics look the same whether the run was local or
// remote.
#pragma once

#include <optional>

#include "common/json.hpp"
#include "sim/system.hpp"

namespace aeep::sim {

/// The metrics view (14 keys, fixed order).
JsonValue run_result_json(const RunResult& r);

/// Lossless codec document for `r`.
JsonValue run_result_to_json(const RunResult& r);

/// Inverse of run_result_to_json. nullopt when `j` is not a codec document
/// (wrong shape or codec version): the store treats that as a miss and the
/// coordinator as a failed attempt, never as a result.
std::optional<RunResult> run_result_from_json(const JsonValue& j);

}  // namespace aeep::sim
