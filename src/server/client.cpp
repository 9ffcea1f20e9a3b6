#include "server/client.hpp"

namespace aeep::server {

Client::Client(const std::string& host, u16 port)
    : sock_(connect_to(host, port)) {}

JsonValue Client::make_request(const std::string& type) {
  JsonValue r = JsonValue::object();
  r.set("type", JsonValue::string(type));
  return r;
}

JsonValue Client::call(const JsonValue& request) {
  if (!token_.empty() && request.find("token") == nullptr) {
    JsonValue authed = request;
    authed.set("token", JsonValue::string(token_));
    send_frame(sock_, authed);
    auto reply = recv_frame(sock_, call_timeout_ms_);
    if (!reply)
      throw ServerError(ServerErrorKind::kIo,
                        "server closed the connection mid-call");
    return std::move(*reply);
  }
  send_frame(sock_, request);
  auto reply = recv_frame(sock_, call_timeout_ms_);
  if (!reply)
    throw ServerError(ServerErrorKind::kIo,
                      "server closed the connection mid-call");
  return std::move(*reply);
}

JsonValue Client::ping() { return check_reply(call(make_request("ping"))); }

u64 Client::submit(const JobSpec& spec) {
  JsonValue req = make_request("submit");
  req.set("job", job_spec_to_json(spec));
  const JsonValue reply = call(req);
  check_reply(reply);
  return reply.get_u64("job_id", 0);
}

JsonValue Client::status(u64 job_id) {
  JsonValue req = make_request("status");
  req.set("job_id", JsonValue::number(job_id));
  return check_reply(call(req));
}

JsonValue Client::result(u64 job_id, bool wait, u64 wait_ms) {
  JsonValue req = make_request("result");
  req.set("job_id", JsonValue::number(job_id));
  req.set("wait", JsonValue::boolean(wait));
  req.set("wait_ms", JsonValue::number(wait_ms));
  return check_reply(call(req));
}

JsonValue Client::run(const JobSpec& spec) {
  JsonValue req = make_request("run");
  req.set("job", job_spec_to_json(spec));
  return check_reply(call(req));
}

JsonValue Client::stats() { return check_reply(call(make_request("stats"))); }

JsonValue Client::metrics() {
  return check_reply(call(make_request("metrics")));
}

JsonValue Client::drain() {
  return check_reply(call(make_request("drain")));
}

std::vector<std::string> Client::traces() {
  const JsonValue reply = check_reply(call(make_request("traces")));
  std::vector<std::string> out;
  if (const JsonValue* names = reply.find("traces"))
    for (const JsonValue& n : names->elements())
      out.push_back(n.as_string());
  return out;
}

}  // namespace aeep::server
