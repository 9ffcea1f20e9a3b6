#include "server/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace aeep::server {

namespace {

void put_u32le(u8* out, u32 v) {
  out[0] = static_cast<u8>(v & 0xFF);
  out[1] = static_cast<u8>((v >> 8) & 0xFF);
  out[2] = static_cast<u8>((v >> 16) & 0xFF);
  out[3] = static_cast<u8>((v >> 24) & 0xFF);
}

u32 get_u32le(const u8* in) {
  return static_cast<u32>(in[0]) | (static_cast<u32>(in[1]) << 8) |
         (static_cast<u32>(in[2]) << 16) | (static_cast<u32>(in[3]) << 24);
}

[[noreturn]] void bad_request(const std::string& what) {
  throw ServerError(ServerErrorKind::kBadRequest, what);
}

}  // namespace

void send_frame(Socket& sock, const JsonValue& doc) {
  const std::string payload = doc.dump(0);  // compact: frames are wire data
  if (payload.size() > kMaxFrameBytes)
    throw ServerError(ServerErrorKind::kProtocol,
                      "outgoing frame of " + std::to_string(payload.size()) +
                          " bytes exceeds the protocol limit");
  u8 prefix[4];
  put_u32le(prefix, static_cast<u32>(payload.size()));
  sock.send_all(prefix, sizeof(prefix));
  sock.send_all(payload.data(), payload.size());
}

std::optional<JsonValue> recv_frame(Socket& sock, int timeout_ms) {
  u8 prefix[4];
  if (!sock.recv_exact(prefix, sizeof(prefix), timeout_ms))
    return std::nullopt;
  const u32 len = get_u32le(prefix);
  if (len > kMaxFrameBytes)
    throw ServerError(ServerErrorKind::kProtocol,
                      "frame prefix claims " + std::to_string(len) +
                          " bytes (limit " + std::to_string(kMaxFrameBytes) +
                          ") — not speaking this protocol?");
  std::vector<char> payload(len);
  if (len > 0 && !sock.recv_exact(payload.data(), payload.size(), timeout_ms))
    throw ServerError(ServerErrorKind::kIo, "peer closed inside a frame");
  std::string error;
  auto doc = json_parse(std::string_view(payload.data(), payload.size()),
                        &error);
  if (!doc)
    throw ServerError(ServerErrorKind::kProtocol,
                      "unparsable frame payload: " + error);
  return doc;
}

JsonValue job_spec_to_json(const JobSpec& spec) {
  JsonValue j = sim::options_to_json(spec);
  j.set("benchmark", JsonValue::string(spec.benchmark));
  if (!spec.trace.empty()) j.set("trace", JsonValue::string(spec.trace));
  if (spec.timeout_ms != 0)
    j.set("timeout_ms", JsonValue::number(spec.timeout_ms));
  return j;
}

JobSpec job_spec_from_json(const JsonValue& doc) {
  if (!doc.is_object()) bad_request("job descriptor must be an object");
  JobSpec spec;
  for (const auto& [key, value] : doc.members()) {
    if (key == "benchmark" || key == "trace") {
      if (!value.is_string())
        bad_request("job field '" + key + "' must be a string");
      (key == "benchmark" ? spec.benchmark : spec.trace) = value.as_string();
    } else if (key == "timeout_ms") {
      // as_u64 answers its fallback exactly when value is not a u64.
      spec.timeout_ms = value.as_u64(0);
      if (spec.timeout_ms != value.as_u64(1))
        bad_request("job field 'timeout_ms' must be an unsigned integer");
    }
  }
  // The options decoder is the validation: a typo'd knob, a value of the
  // wrong kind or size and an impossible stuck-fault site all fail loudly
  // instead of silently running the default experiment.
  try {
    static_cast<sim::ExperimentOptions&>(spec) = sim::options_from_json(
        doc, {"benchmark", "trace", "timeout_ms"});
  } catch (const std::invalid_argument& e) {
    bad_request(e.what());
  }
  if (spec.benchmark.empty()) bad_request("benchmark must be non-empty");
  if (spec.instructions == 0) bad_request("instructions must be > 0");
  return spec;
}

JobSpec job_spec_from_options(const std::string& benchmark,
                              const sim::ExperimentOptions& options) {
  return {options, benchmark, {}, 0};
}

JsonValue ok_reply(const std::string& type) {
  JsonValue j = JsonValue::object();
  j.set("ok", JsonValue::boolean(true));
  j.set("type", JsonValue::string(type));
  return j;
}

JsonValue error_reply(ServerErrorKind kind, const std::string& message) {
  JsonValue j = JsonValue::object();
  j.set("ok", JsonValue::boolean(false));
  j.set("error", JsonValue::string(wire_code(kind)));
  // ServerError::what() embeds the human kind prefix; strip it so the
  // client-side rethrow (which prefixes again) does not stutter
  // "server busy: server busy: ...".
  const std::string prefix = std::string(to_string(kind)) + ": ";
  j.set("message", JsonValue::string(
                       message.rfind(prefix, 0) == 0
                           ? message.substr(prefix.size())
                           : message));
  return j;
}

const JsonValue& check_reply(const JsonValue& reply) {
  if (reply.get_bool("ok", false)) return reply;
  const ServerErrorKind kind =
      kind_from_wire_code(reply.get_string("error", "internal"));
  throw ServerError(kind, reply.get_string("message", "request failed"));
}

}  // namespace aeep::server
