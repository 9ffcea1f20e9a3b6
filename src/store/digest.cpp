#include "store/digest.hpp"

#include "common/crc64.hpp"
#include "store/build_digest.hpp"
#include "trace/error.hpp"
#include "trace/io.hpp"

namespace aeep::store {

std::string Digest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i)
    out[static_cast<std::size_t>(i)] =
        digits[(value >> (60 - 4 * i)) & 0xF];
  return out;
}

std::optional<Digest> Digest::from_hex(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  u64 v = 0;
  for (const char c : s) {
    u64 nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') nibble = static_cast<u64>(c - 'A' + 10);
    else return std::nullopt;
    v = (v << 4) | nibble;
  }
  return Digest{v};
}

JsonValue canonical_job_json(const std::string& benchmark,
                             const sim::ExperimentOptions& opts,
                             u64 trace_crc64) {
  JsonValue j = JsonValue::object();
  j.set("v", JsonValue::number(u64{3}));
  // The simulator build is part of a cell's identity: a changed binary
  // must cold-miss rather than serve results the old code computed.
  j.set("build", JsonValue::string(Digest{build_digest()}.hex()));
  j.set("benchmark", JsonValue::string(benchmark));
  j.set("options", sim::options_to_json(opts));
  if (opts.frontend == sim::Frontend::kTrace)
    j.set("trace_crc64", JsonValue::string(Digest{trace_crc64}.hex()));
  return j;
}

std::optional<Digest> job_digest(const std::string& benchmark,
                                 const sim::ExperimentOptions& opts) {
  if (!opts.capture_path.empty()) return std::nullopt;
  u64 trace_crc = 0;
  if (opts.frontend == sim::Frontend::kTrace) {
    try {
      trace_crc = trace::file_digest(sim::trace_path_for(benchmark, opts));
    } catch (const trace::TraceError&) {
      return std::nullopt;  // unreadable trace: let the real run report it
    } catch (const std::exception&) {
      return std::nullopt;  // unresolvable path (no trace_dir/trace_path)
    }
  }
  const std::string canon =
      canonical_job_json(benchmark, opts, trace_crc).dump(0);
  return Digest{crc64(canon)};
}

}  // namespace aeep::store
