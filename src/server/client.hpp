// Client side of the aeep_served protocol: one connection, synchronous
// request/reply calls. Not-ok replies are raised as the typed ServerError
// they carry on the wire, so a caller can branch on kind() — the load
// generator catches kBusy to count backpressure instead of failing, the
// CLI maps kinds to exit codes.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "server/error.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"

namespace aeep::server {

class Client {
 public:
  /// Connects immediately. Throws ServerError(kIo) when nobody listens.
  Client(const std::string& host, u16 port);

  /// Raw request/reply round trip. Returns the reply unchecked (ok or
  /// not); throws ServerError(kIo) when the server hangs up mid-call.
  JsonValue call(const JsonValue& request);

  /// Bound every call()'s reply wait. A server (or chaos proxy) that
  /// swallows the reply then surfaces as ServerError(kIo) after this long
  /// instead of hanging the caller forever. Negative = wait forever (the
  /// default, matching the original blocking behaviour).
  void set_call_timeout_ms(int timeout_ms) { call_timeout_ms_ = timeout_ms; }

  /// Shared-secret auth: once set, every call() carries the token. Must
  /// match the server's --token or requests bounce as kUnauthorized.
  void set_token(std::string token) { token_ = std::move(token); }

  /// Checked calls: each raises a not-ok reply as its typed ServerError.
  JsonValue ping();
  u64 submit(const JobSpec& spec);                ///< -> job id (kBusy!)
  JsonValue status(u64 job_id);
  JsonValue result(u64 job_id, bool wait = true, u64 wait_ms = 60'000);
  JsonValue run(const JobSpec& spec);             ///< submit + wait inline
  JsonValue stats();
  JsonValue metrics();                            ///< registry snapshot
  JsonValue drain();                              ///< ask the server to drain
  std::vector<std::string> traces();

  /// Helper: a bare {"type": <type>} request object.
  static JsonValue make_request(const std::string& type);

 private:
  Socket sock_;
  int call_timeout_ms_ = -1;
  std::string token_;
};

}  // namespace aeep::server
