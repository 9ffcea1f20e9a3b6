// Differential property test: the Cache implementation against a simple
// map-based reference model, under randomized operation streams across a
// sweep of geometries. Catches indexing, replacement-accounting and
// dirty-count bugs that unit tests with hand-picked addresses miss.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"

namespace aeep::cache {
namespace {

/// Reference model: a map from set -> (tag -> line state), LRU by explicit
/// timestamp, mirroring the documented semantics of Cache.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheGeometry& geom) : geom_(geom) {}

  struct Line {
    bool dirty = false;
    bool written = false;
    Cycle last_touch = 0;
  };

  bool hit(Addr addr) const {
    const auto set_it = sets_.find(geom_.set_index(addr));
    if (set_it == sets_.end()) return false;
    return set_it->second.count(geom_.tag_of(addr)) != 0;
  }

  void touch(Addr addr, Cycle now) {
    sets_[geom_.set_index(addr)][geom_.tag_of(addr)].last_touch = now;
  }

  /// Returns the evicted line's dirtiness, if an eviction happened.
  std::optional<bool> fill(Addr addr, Cycle now) {
    auto& set = sets_[geom_.set_index(addr)];
    std::optional<bool> evicted_dirty;
    if (set.size() >= geom_.ways) {
      // Evict LRU.
      auto victim = set.begin();
      for (auto it = set.begin(); it != set.end(); ++it) {
        if (it->second.last_touch < victim->second.last_touch) victim = it;
      }
      evicted_dirty = victim->second.dirty;
      set.erase(victim);
    }
    set[geom_.tag_of(addr)] = Line{false, false, now};
    return evicted_dirty;
  }

  void mark_dirty(Addr addr) {
    sets_[geom_.set_index(addr)][geom_.tag_of(addr)].dirty = true;
  }
  void clear_dirty(Addr addr) {
    sets_[geom_.set_index(addr)][geom_.tag_of(addr)].dirty = false;
  }

  u64 dirty_count() const {
    u64 n = 0;
    for (const auto& [s, set] : sets_)
      for (const auto& [t, line] : set)
        if (line.dirty) ++n;
    return n;
  }

 private:
  CacheGeometry geom_;
  std::map<u64, std::map<u64, Line>> sets_;
};

struct GeometryCase {
  u64 size;
  unsigned ways;
  unsigned line;
};

class CacheDifferential : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(CacheDifferential, MatchesReferenceUnderRandomOps) {
  const auto [size, ways, line] = GetParam();
  const CacheGeometry geom{size, ways, line};
  Cache cache(geom);
  ReferenceCache ref(geom);
  Xorshift64Star rng(size ^ (ways * 131) ^ line);

  const u64 addr_space = size * 4;  // 4x capacity: plenty of conflicts
  Cycle now = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 1 + rng.next_below(3);
    const Addr addr =
        geom.line_base(rng.next_below(addr_space));
    const bool is_write = rng.chance(0.3);

    const ProbeResult pr = cache.probe(addr);
    ASSERT_EQ(pr.hit, ref.hit(addr)) << "step " << step;

    if (pr.hit) {
      cache.touch(pr.set, pr.way, now);
      ref.touch(addr, now);
      if (is_write) {
        cache.mark_dirty(pr.set, pr.way);
        ref.mark_dirty(addr);
      }
    } else {
      const Victim v = cache.pick_victim(pr.set);
      const auto ref_evicted = ref.fill(addr, now);
      ASSERT_EQ(v.valid, ref_evicted.has_value()) << "step " << step;
      if (v.valid) {
        ASSERT_EQ(v.dirty, *ref_evicted) << "step " << step;
      }
      cache.install(pr.set, v.way, addr, now);
      if (is_write) {
        cache.mark_dirty(pr.set, v.way);
        ref.mark_dirty(addr);
      }
    }
    if (step % 257 == 0) {
      ASSERT_EQ(cache.dirty_count(), ref.dirty_count()) << "step " << step;
    }
    // Occasionally clean a random resident line through both models.
    if (rng.chance(0.02)) {
      const u64 set = rng.next_below(geom.num_sets());
      if (auto way = cache.find_dirty_way(set)) {
        const Addr victim_addr = cache.line_addr(set, *way);
        cache.clear_dirty(set, *way);
        ref.clear_dirty(victim_addr);
      }
    }
  }
  EXPECT_EQ(cache.dirty_count(), ref.dirty_count());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(GeometryCase{4 * KiB, 1, 32},    // direct-mapped
                      GeometryCase{8 * KiB, 2, 32},
                      GeometryCase{16 * KiB, 4, 64},   // small L1-ish
                      GeometryCase{32 * KiB, 8, 64},   // high associativity
                      GeometryCase{64 * KiB, 4, 128},  // wide lines
                      GeometryCase{128 * KiB, 16, 64}),
    [](const auto& info) {
      return std::to_string(info.param.size / KiB) + "KB_" +
             std::to_string(info.param.ways) + "w_" +
             std::to_string(info.param.line) + "B";
    });

}  // namespace
}  // namespace aeep::cache
