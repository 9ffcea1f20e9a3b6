#include "cache/cache.hpp"

#include <algorithm>
#include <cassert>

namespace aeep::cache {

namespace {
const CacheGeometry& validated(const CacheGeometry& geometry) {
  geometry.validate();
  return geometry;
}
}  // namespace

Cache::Cache(const CacheGeometry& geometry)
    : geom_(validated(geometry)),
      offset_shift_(geom_.offset_bits()),
      set_mask_(geom_.num_sets() - 1),
      tag_shift_(offset_shift_ + geom_.index_bits()) {
  lines_.resize(geom_.total_lines());
  payload_.resize(geom_.total_lines() * geom_.words_per_line(), 0);
  retired_.assign(geom_.total_lines(), 0);
}

ProbeResult Cache::probe(Addr addr) const {
  const u64 set = (addr >> offset_shift_) & set_mask_;
  const u64 tag = addr >> tag_shift_;
  for (unsigned w = 0; w < geom_.ways; ++w) {
    const CacheLineMeta& m = lines_[line_index(set, w)];
    if (m.valid && m.tag == tag) return {true, set, w};
  }
  return {false, set, 0};
}

void Cache::touch(u64 set, unsigned way, Cycle now) {
  lines_[line_index(set, way)].stamp = now;
}

Victim Cache::pick_victim(u64 set) {
  // Prefer an invalid (and not retired) way.
  for (unsigned w = 0; w < geom_.ways; ++w) {
    if (is_retired(set, w)) continue;
    if (!lines_[line_index(set, w)].valid) {
      Victim v;
      v.valid = false;
      v.way = w;
      return v;
    }
  }
  unsigned choice = geom_.ways;  // sentinel: no active way found yet
  Cycle best = ~Cycle{0};
  for (unsigned w = 0; w < geom_.ways; ++w) {
    if (is_retired(set, w)) continue;
    const Cycle s = lines_[line_index(set, w)].stamp;
    if (choice == geom_.ways || s < best) {
      best = s;
      choice = w;
    }
  }
  assert(choice < geom_.ways && "a set must keep at least one active way");
  const CacheLineMeta& m = lines_[line_index(set, choice)];
  Victim v;
  v.valid = true;
  v.addr = addr_of(m.tag, set);
  v.dirty = m.dirty;
  v.written = m.written;
  v.way = choice;
  return v;
}

void Cache::install(u64 set, unsigned way, Addr addr, Cycle now,
                    std::span<const u64> payload) {
  assert(way < geom_.ways);
  assert(!is_retired(set, way) && "cannot install into a retired way");
  assert(((addr >> offset_shift_) & set_mask_) == set);
  CacheLineMeta& m = lines_[line_index(set, way)];
  if (m.valid) {
    ++stats_.evictions;
    if (m.dirty) {
      ++stats_.dirty_evictions;
      --dirty_count_;
    }
  }
  m.tag = addr >> tag_shift_;
  m.valid = true;
  m.dirty = false;
  m.written = false;
  m.stamp = now;
  ++stats_.fills;

  auto dst = data(set, way);
  if (!payload.empty()) {
    assert(payload.size() == dst.size());
    std::copy(payload.begin(), payload.end(), dst.begin());
  }
}

void Cache::invalidate(u64 set, unsigned way) {
  CacheLineMeta& m = lines_[line_index(set, way)];
  if (m.valid && m.dirty) --dirty_count_;
  m.valid = false;
  m.dirty = false;
  m.written = false;
}

void Cache::retire_way(u64 set, unsigned way) {
  assert(way < geom_.ways);
  assert(!lines_[line_index(set, way)].valid &&
         "dispose of the resident line before retiring its way");
  u8& fuse = retired_[line_index(set, way)];
  if (fuse) return;
  assert(active_ways(set) > 1 && "a set must keep at least one active way");
  fuse = 1;
  ++retired_count_;
}

unsigned Cache::active_ways(u64 set) const {
  unsigned n = 0;
  for (unsigned w = 0; w < geom_.ways; ++w)
    if (!is_retired(set, w)) ++n;
  return n;
}

void Cache::mark_dirty(u64 set, unsigned way) {
  CacheLineMeta& m = lines_[line_index(set, way)];
  assert(m.valid);
  if (!m.dirty) {
    m.dirty = true;
    ++dirty_count_;
  }
}

void Cache::clear_dirty(u64 set, unsigned way) {
  CacheLineMeta& m = lines_[line_index(set, way)];
  if (m.valid && m.dirty) {
    m.dirty = false;
    --dirty_count_;
  }
}

void Cache::set_written(u64 set, unsigned way, bool value) {
  CacheLineMeta& m = lines_[line_index(set, way)];
  assert(m.valid);
  m.written = value;
}

const CacheLineMeta& Cache::meta(u64 set, unsigned way) const {
  return lines_[line_index(set, way)];
}

Addr Cache::line_addr(u64 set, unsigned way) const {
  const CacheLineMeta& m = lines_[line_index(set, way)];
  assert(m.valid);
  return addr_of(m.tag, set);
}

std::optional<unsigned> Cache::find_dirty_way(u64 set) const {
  for (unsigned w = 0; w < geom_.ways; ++w) {
    const CacheLineMeta& m = lines_[line_index(set, w)];
    if (m.valid && m.dirty) return w;
  }
  return std::nullopt;
}

unsigned Cache::count_dirty_in_set(u64 set) const {
  unsigned n = 0;
  for (unsigned w = 0; w < geom_.ways; ++w) {
    const CacheLineMeta& m = lines_[line_index(set, w)];
    if (m.valid && m.dirty) ++n;
  }
  return n;
}

std::span<u64> Cache::data(u64 set, unsigned way) {
  const std::size_t base = line_index(set, way) * geom_.words_per_line();
  return {payload_.data() + base, geom_.words_per_line()};
}

std::span<const u64> Cache::data(u64 set, unsigned way) const {
  const std::size_t base = line_index(set, way) * geom_.words_per_line();
  return {payload_.data() + base, geom_.words_per_line()};
}

void Cache::reset() {
  for (auto& m : lines_) m = CacheLineMeta{};
  std::fill(payload_.begin(), payload_.end(), 0);
  std::fill(retired_.begin(), retired_.end(), u8{0});
  retired_count_ = 0;
  dirty_count_ = 0;
  stats_ = {};
}

}  // namespace aeep::cache
