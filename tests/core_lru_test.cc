#include "core/lru.h"

#include <optional>

#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(LruTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.Admit(1, AccessType::kRead);
  lru.Admit(2, AccessType::kRead);
  lru.Admit(3, AccessType::kRead);
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(lru.Evict(), std::nullopt);
}

TEST(LruTest, AccessRefreshesRecency) {
  LruPolicy lru;
  lru.Admit(1, AccessType::kRead);
  lru.Admit(2, AccessType::kRead);
  lru.Admit(3, AccessType::kRead);
  lru.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(1));
}

TEST(LruTest, ResidencyTracking) {
  LruPolicy lru;
  EXPECT_FALSE(lru.IsResident(5));
  lru.Admit(5, AccessType::kRead);
  EXPECT_TRUE(lru.IsResident(5));
  EXPECT_EQ(lru.ResidentCount(), 1u);
  lru.Evict();
  EXPECT_FALSE(lru.IsResident(5));
  EXPECT_EQ(lru.ResidentCount(), 0u);
}

TEST(LruTest, RemoveDropsPage) {
  LruPolicy lru;
  lru.Admit(1, AccessType::kRead);
  lru.Admit(2, AccessType::kRead);
  lru.Remove(1);
  EXPECT_FALSE(lru.IsResident(1));
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(2));
}

TEST(LruTest, EvictFromEmpty) {
  LruPolicy lru;
  EXPECT_EQ(lru.Evict(), std::nullopt);
}

TEST(LruTest, ReAdmitAfterEvictionIsFresh) {
  LruPolicy lru;
  lru.Admit(1, AccessType::kRead);
  lru.Admit(2, AccessType::kRead);
  ASSERT_EQ(lru.Evict(), std::optional<PageId>(1));
  lru.Admit(1, AccessType::kRead);  // 1 is now more recent than 2.
  EXPECT_EQ(lru.Evict(), std::optional<PageId>(2));
}

TEST(LruTest, LongSequenceKeepsWorkingSet) {
  LruPolicy lru;
  // Admit 10 pages, then repeatedly touch 0..4; evictions should drain
  // 5..9 first.
  for (PageId p = 0; p < 10; ++p) lru.Admit(p, AccessType::kRead);
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 0; p < 5; ++p) lru.RecordAccess(p, AccessType::kRead);
  }
  for (PageId expected = 5; expected < 10; ++expected) {
    EXPECT_EQ(lru.Evict(), std::optional<PageId>(expected));
  }
}

}  // namespace
}  // namespace lruk
