// Tests for the background scrubber.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "mem/bus.hpp"
#include "mem/memory_store.hpp"
#include "protect/scrubber.hpp"

namespace aeep::protect {
namespace {

class ScrubberTest : public ::testing::Test {
 protected:
  ScrubberTest() {
    L2Config cfg;
    cfg.geometry = cache::CacheGeometry{4096, 4, 64};  // 16 sets
    cfg.scheme = SchemeKind::kNonUniform;
    cfg.maintain_codes = true;
    l2_ = std::make_unique<ProtectedL2>(cfg, bus_, memory_);
  }

  std::vector<u64> line_of(u64 v) { return std::vector<u64>(8, v); }

  mem::SplitTransactionBus bus_{{8, 100}};
  mem::MemoryStore memory_;
  std::unique_ptr<ProtectedL2> l2_;
};

TEST_F(ScrubberTest, RepairsLatentSingleInDirtyLine) {
  l2_->write(0, 0x0, ~u64{0}, line_of(0x77));
  auto data = l2_->cache_model().data(0, l2_->cache_model().probe(0x0).way);
  data[3] = flip_bit(data[3], 21);  // latent strike

  Scrubber scrubber(*l2_);
  scrubber.scrub_all();
  EXPECT_GE(scrubber.stats().lines_scrubbed, 1u);
  EXPECT_EQ(scrubber.stats().words_corrected, 1u);
  EXPECT_EQ(data[3], 0x77u);  // repaired in place
  EXPECT_EQ(scrubber.stats().uncorrectable, 0u);
}

TEST_F(ScrubberTest, RefetchesCleanLine) {
  l2_->read(0, 0x4000);
  const auto pr = l2_->cache_model().probe(0x4000);
  auto data = l2_->cache_model().data(pr.set, pr.way);
  data[0] = flip_bit(data[0], 5);

  Scrubber scrubber(*l2_);
  scrubber.scrub_all();
  EXPECT_EQ(scrubber.stats().lines_refetched, 1u);
  EXPECT_EQ(data[0], memory_.read_word(0x4000));
}

TEST_F(ScrubberTest, PreventsDoubleAccumulation) {
  // Strike the same word twice with a scrub in between: both repaired.
  // Without the scrub, the pair would be a DUE.
  l2_->write(0, 0x0, ~u64{0}, line_of(0xAB));
  const auto pr = l2_->cache_model().probe(0x0);
  auto data = l2_->cache_model().data(pr.set, pr.way);

  Scrubber scrubber(*l2_);
  data[2] = flip_bit(data[2], 7);
  scrubber.scrub_all();
  data[2] = flip_bit(data[2], 40);
  scrubber.scrub_all();
  EXPECT_EQ(scrubber.stats().words_corrected, 2u);
  EXPECT_EQ(scrubber.stats().uncorrectable, 0u);
  EXPECT_EQ(data[2], 0xABu);

  // Control: two strikes without an intervening scrub are unrecoverable.
  data[2] = flip_bit(flip_bit(data[2], 7), 40);
  scrubber.scrub_all();
  EXPECT_EQ(scrubber.stats().uncorrectable, 1u);
}

TEST_F(ScrubberTest, CountsScrubbedLines) {
  for (unsigned i = 0; i < 8; ++i)
    l2_->read(0, 0x10000 + static_cast<Addr>(i) * 64);
  Scrubber scrubber(*l2_);
  scrubber.scrub_all();
  EXPECT_EQ(scrubber.stats().lines_scrubbed, 8u);
}

}  // namespace
}  // namespace aeep::protect
