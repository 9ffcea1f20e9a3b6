#include "sim/result_json.hpp"

#include <stdexcept>
#include <utility>

namespace aeep::sim {

constexpr u64 kCodecVersion = 1;

JsonValue run_result_json(const RunResult& r) {
  JsonValue m = JsonValue::object();
  m.set("ipc", JsonValue::number(r.ipc()));
  m.set("committed", JsonValue::number(r.core.committed));
  m.set("cycles", JsonValue::number(r.core.cycles));
  m.set("avg_dirty_fraction", JsonValue::number(r.avg_dirty_fraction));
  m.set("avg_dirty_lines", JsonValue::number(r.avg_dirty_lines));
  m.set("peak_dirty_lines", JsonValue::number(r.peak_dirty_lines));
  m.set("wb_replacement", JsonValue::number(r.wb_replacement));
  m.set("wb_cleaning", JsonValue::number(r.wb_cleaning));
  m.set("wb_ecc", JsonValue::number(r.wb_ecc));
  m.set("wb_total", JsonValue::number(r.wb_total()));
  m.set("wb_per_kls", JsonValue::number(r.wb_per_ls() * 1000.0));
  m.set("l2_accesses", JsonValue::number(r.l2.accesses()));
  m.set("l2_misses", JsonValue::number(r.l2.misses()));
  m.set("bus_bytes_written", JsonValue::number(r.bus.bytes_written));
  return m;
}

JsonValue run_result_to_json(const RunResult& r) {
  JsonValue head = JsonValue::object();
  head.set("codec", JsonValue::number(kCodecVersion));
  return fields_to_json(r, std::move(head));
}

std::optional<RunResult> run_result_from_json(const JsonValue& j) {
  if (!j.is_object() || j.get_u64("codec") != kCodecVersion)
    return std::nullopt;
  RunResult r;
  try {
    fields_from_json(j, r, MissingField::kRefuse, {"codec"});
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return r;
}

}  // namespace aeep::sim
