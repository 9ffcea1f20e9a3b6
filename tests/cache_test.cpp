// Tests for the cache substrate: geometry slicing, probe/install/evict,
// LRU replacement, dirty/written bookkeeping, payload access, and the
// coalescing write buffer.
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/write_buffer.hpp"

namespace aeep::cache {
namespace {

TEST(Geometry, PaperL2Shape) {
  const CacheGeometry g = kL2Geometry;
  EXPECT_EQ(g.num_sets(), 4096u);       // "there are 4K cache sets"
  EXPECT_EQ(g.total_lines(), 16384u);   // "a total of 16K cache lines"
  EXPECT_EQ(g.words_per_line(), 8u);
  EXPECT_EQ(g.offset_bits(), 6u);
  EXPECT_EQ(g.index_bits(), 12u);       // "the latch is 12 bits wide"
}

TEST(Geometry, AddressSlicingRoundTrips) {
  const CacheGeometry g = kL2Geometry;
  const Addr a = 0xDEADBEC0;
  EXPECT_EQ(g.line_base(a), a & ~Addr{63});
  const u64 set = g.set_index(a);
  const u64 tag = g.tag_of(a);
  EXPECT_EQ(g.addr_of(tag, set), g.line_base(a));
}

TEST(Geometry, ValidateRejectsBadShapes) {
  EXPECT_THROW((CacheGeometry{1000, 4, 64}.validate()), std::invalid_argument);
  EXPECT_THROW((CacheGeometry{1 * MiB, 3, 64}.validate()), std::invalid_argument);
  EXPECT_THROW((CacheGeometry{1 * MiB, 4, 4}.validate()), std::invalid_argument);
  EXPECT_NO_THROW(kL1IGeometry.validate());
}

class SmallCache : public ::testing::Test {
 protected:
  // 4 sets x 2 ways x 64B = 512B cache: easy to force conflicts.
  SmallCache() : c_(CacheGeometry{512, 2, 64}) {}

  Addr addr_for(u64 set, u64 tag) const {
    return c_.geometry().addr_of(tag, set);
  }

  Cache c_;
};

TEST_F(SmallCache, MissThenHit) {
  const Addr a = addr_for(1, 7);
  EXPECT_FALSE(c_.probe(a).hit);
  const auto v = c_.pick_victim(1);
  EXPECT_FALSE(v.valid);  // empty way available
  c_.install(1, v.way, a, 10);
  const auto pr = c_.probe(a);
  EXPECT_TRUE(pr.hit);
  EXPECT_EQ(pr.set, 1u);
  EXPECT_EQ(c_.stats().fills, 1u);
}

TEST_F(SmallCache, LruEvictsLeastRecentlyTouched) {
  const Addr a = addr_for(2, 1), b = addr_for(2, 2), x = addr_for(2, 3);
  c_.install(2, c_.pick_victim(2).way, a, 1);
  c_.install(2, c_.pick_victim(2).way, b, 2);
  c_.touch(c_.probe(a).set, c_.probe(a).way, 5);  // a most recent
  const auto v = c_.pick_victim(2);
  EXPECT_TRUE(v.valid);
  EXPECT_EQ(v.addr, b);  // b is LRU
  c_.install(2, v.way, x, 6);
  EXPECT_TRUE(c_.probe(a).hit);
  EXPECT_FALSE(c_.probe(b).hit);
  EXPECT_TRUE(c_.probe(x).hit);
  EXPECT_EQ(c_.stats().evictions, 1u);
}

TEST_F(SmallCache, DirtyCountTracksTransitions) {
  const Addr a = addr_for(0, 1), b = addr_for(1, 1);
  c_.install(0, c_.pick_victim(0).way, a, 1);
  c_.install(1, c_.pick_victim(1).way, b, 1);
  EXPECT_EQ(c_.dirty_count(), 0u);
  c_.mark_dirty(0, c_.probe(a).way);
  c_.mark_dirty(1, c_.probe(b).way);
  EXPECT_EQ(c_.dirty_count(), 2u);
  c_.mark_dirty(0, c_.probe(a).way);  // idempotent
  EXPECT_EQ(c_.dirty_count(), 2u);
  c_.clear_dirty(0, c_.probe(a).way);
  EXPECT_EQ(c_.dirty_count(), 1u);
  c_.clear_dirty(0, c_.probe(a).way);  // idempotent
  EXPECT_EQ(c_.dirty_count(), 1u);
}

TEST_F(SmallCache, InstallOverDirtyLineAdjustsCount) {
  const Addr a = addr_for(3, 1), b = addr_for(3, 2), x = addr_for(3, 9);
  c_.install(3, c_.pick_victim(3).way, a, 1);
  c_.install(3, c_.pick_victim(3).way, b, 2);
  c_.mark_dirty(3, c_.probe(a).way);
  EXPECT_EQ(c_.dirty_count(), 1u);
  const auto v = c_.pick_victim(3);  // a is LRU and dirty
  EXPECT_TRUE(v.dirty);
  c_.install(3, v.way, x, 3);
  EXPECT_EQ(c_.dirty_count(), 0u);
  EXPECT_EQ(c_.stats().dirty_evictions, 1u);
}

TEST_F(SmallCache, WrittenBitLifecycle) {
  const Addr a = addr_for(0, 5);
  c_.install(0, c_.pick_victim(0).way, a, 1);
  const unsigned way = c_.probe(a).way;
  EXPECT_FALSE(c_.meta(0, way).written);  // reset on fill (§3.2)
  c_.mark_dirty(0, way);
  c_.set_written(0, way, true);
  EXPECT_TRUE(c_.meta(0, way).written);
  // Re-install resets both bits.
  c_.install(0, way, addr_for(0, 6), 2);
  EXPECT_FALSE(c_.meta(0, way).dirty);
  EXPECT_FALSE(c_.meta(0, way).written);
}

TEST_F(SmallCache, FindDirtyWay) {
  const Addr a = addr_for(2, 1), b = addr_for(2, 2);
  c_.install(2, 0, a, 1);
  c_.install(2, 1, b, 2);
  EXPECT_FALSE(c_.find_dirty_way(2).has_value());
  c_.mark_dirty(2, 1);
  ASSERT_TRUE(c_.find_dirty_way(2).has_value());
  EXPECT_EQ(*c_.find_dirty_way(2), 1u);
  EXPECT_EQ(c_.count_dirty_in_set(2), 1u);
  c_.mark_dirty(2, 0);
  EXPECT_EQ(c_.count_dirty_in_set(2), 2u);
}

TEST_F(SmallCache, PayloadStorage) {
  const Addr a = addr_for(1, 3);
  std::vector<u64> payload{10, 20, 30, 40, 50, 60, 70, 80};
  c_.install(1, 0, a, 1, payload);
  const auto d = c_.data(1, 0);
  ASSERT_EQ(d.size(), 8u);
  EXPECT_EQ(d[0], 10u);
  EXPECT_EQ(d[7], 80u);
  c_.data(1, 0)[3] = 99;
  EXPECT_EQ(c_.data(1, 0)[3], 99u);
}

TEST_F(SmallCache, InvalidateDropsDirty) {
  const Addr a = addr_for(1, 4);
  c_.install(1, 0, a, 1);
  c_.mark_dirty(1, 0);
  c_.invalidate(1, 0);
  EXPECT_EQ(c_.dirty_count(), 0u);
  EXPECT_FALSE(c_.probe(a).hit);
}

TEST_F(SmallCache, ResetClearsEverything) {
  c_.install(0, 0, addr_for(0, 1), 1);
  c_.mark_dirty(0, 0);
  c_.reset();
  EXPECT_EQ(c_.dirty_count(), 0u);
  EXPECT_EQ(c_.stats().fills, 0u);
  EXPECT_FALSE(c_.probe(addr_for(0, 1)).hit);
}

TEST(CacheLarge, PaperConfigurationHolds16KLines) {
  Cache c(kL2Geometry);
  EXPECT_EQ(c.geometry().total_lines(), 16384u);
  // Fill one line in every set and verify dirty accounting at scale.
  for (u64 s = 0; s < c.geometry().num_sets(); ++s) {
    c.install(s, 0, c.geometry().addr_of(1, s), 1);
    c.mark_dirty(s, 0);
  }
  EXPECT_EQ(c.dirty_count(), 4096u);
}

// ---------------------------------------------------------------------------
// Write buffer
// ---------------------------------------------------------------------------

TEST(WriteBuffer, CoalescesStoresToSameLine) {
  WriteBuffer wb(16, 64);
  EXPECT_EQ(wb.push(0x100, 1), WriteBuffer::PushResult::kNew);
  EXPECT_EQ(wb.push(0x108, 2), WriteBuffer::PushResult::kCoalesced);
  EXPECT_EQ(wb.push(0x138, 3), WriteBuffer::PushResult::kCoalesced);
  ASSERT_EQ(wb.size(), 1u);
  const WriteBufferView e = wb.front();
  EXPECT_EQ(e.line, 0x100u);
  EXPECT_EQ(e.word_mask, 0b10000011u);
  EXPECT_EQ(e.words[0], 1u);
  EXPECT_EQ(e.words[1], 2u);
  EXPECT_EQ(e.words[7], 3u);
  EXPECT_EQ(wb.stats().coalesced, 2u);
}

TEST(WriteBuffer, LastWriteToWordWins) {
  WriteBuffer wb(16, 64);
  wb.push(0x200, 5);
  wb.push(0x200, 9);
  EXPECT_EQ(wb.front().words[0], 9u);
}

TEST(WriteBuffer, FifoDrainOrder) {
  WriteBuffer wb(16, 64);
  wb.push(0x000, 1);
  wb.push(0x040, 2);
  wb.push(0x080, 3);
  EXPECT_EQ(wb.pop().line, 0x000u);
  EXPECT_EQ(wb.pop().line, 0x040u);
  EXPECT_EQ(wb.pop().line, 0x080u);
  EXPECT_TRUE(wb.empty());
  EXPECT_EQ(wb.stats().drains, 3u);
}

TEST(WriteBuffer, FullRejectsNewLinesButCoalesces) {
  WriteBuffer wb(2, 64);
  wb.push(0x000, 1);
  wb.push(0x040, 2);
  EXPECT_TRUE(wb.full());
  EXPECT_EQ(wb.push(0x080, 3), WriteBuffer::PushResult::kFull);
  EXPECT_EQ(wb.stats().full_events, 1u);
  // Same-line store still merges while full.
  EXPECT_EQ(wb.push(0x048, 4), WriteBuffer::PushResult::kCoalesced);
}

TEST(WriteBuffer, SixteenEntriesAsInPaper) {
  WriteBuffer wb;  // defaults
  EXPECT_EQ(wb.capacity(), 16u);
  for (unsigned i = 0; i < 16; ++i)
    EXPECT_EQ(wb.push(i * 64, i), WriteBuffer::PushResult::kNew);
  EXPECT_EQ(wb.push(16 * 64, 0), WriteBuffer::PushResult::kFull);
}

TEST(WriteBuffer, StampsTrackEntryCreationNotCoalescing) {
  WriteBuffer wb(4, 64);
  wb.push(0x000, 1, /*now=*/10);
  wb.push(0x008, 2, /*now=*/25);  // coalesces; oldest store sets the age
  EXPECT_EQ(wb.front_stamp(), 10u);
  EXPECT_EQ(wb.view(0).stamp, 10u);
  wb.push(0x040, 3, /*now=*/30);
  EXPECT_EQ(wb.view(1).stamp, 30u);
}

TEST(WriteBuffer, RingWrapsAroundAfterDrains) {
  WriteBuffer wb(2, 64);
  wb.push(0x000, 1);
  wb.push(0x040, 2);
  EXPECT_EQ(wb.pop().line, 0x000u);
  // Reuses slot 0 while slot 1 still holds 0x040: FIFO order must survive
  // the wrap, and the CAM must still see both lines.
  wb.push(0x080, 3);
  EXPECT_EQ(wb.push(0x048, 4), WriteBuffer::PushResult::kCoalesced);
  EXPECT_EQ(wb.view(0).line, 0x040u);
  EXPECT_EQ(wb.view(1).line, 0x080u);
  EXPECT_EQ(wb.pop().line, 0x040u);
  EXPECT_EQ(wb.pop().line, 0x080u);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, PopMaterialisesPayloadCopy) {
  WriteBuffer wb(2, 64);
  wb.push(0x100, 7);
  wb.push(0x118, 8);
  WriteBufferEntry e = wb.pop();
  EXPECT_EQ(e.line, 0x100u);
  EXPECT_EQ(e.word_mask, 0b1001u);
  ASSERT_EQ(e.words.size(), 8u);
  EXPECT_EQ(e.words[0], 7u);
  EXPECT_EQ(e.words[3], 8u);
  EXPECT_EQ(e.words[1], 0u);
  // Recycled storage is reused by the next pop without reallocating.
  const u64* stolen = e.words.data();
  wb.recycle(std::move(e));
  EXPECT_EQ(wb.free_list_size(), 1u);
  wb.push(0x200, 9);
  WriteBufferEntry e2 = wb.pop();
  EXPECT_EQ(e2.words.data(), stolen);
  EXPECT_EQ(e2.words[0], 9u);
}

TEST(WriteBuffer, ResetVariants) {
  WriteBuffer wb(4, 64);
  wb.push(0, 1);
  wb.reset_stats();
  EXPECT_EQ(wb.stats().stores, 0u);
  EXPECT_EQ(wb.size(), 1u);  // entries retained
  wb.reset();
  EXPECT_TRUE(wb.empty());
}

}  // namespace
}  // namespace aeep::cache
