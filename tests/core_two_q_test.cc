#include "core/two_q.h"

#include <optional>

#include "gtest/gtest.h"

namespace lruk {
namespace {

TwoQOptions Opts(size_t capacity, double kin = 0.25, double kout = 0.5) {
  TwoQOptions o;
  o.capacity = capacity;
  o.kin_fraction = kin;
  o.kout_fraction = kout;
  return o;
}

TEST(TwoQTest, NewPagesEnterA1in) {
  TwoQPolicy q(Opts(8));
  q.Admit(1, AccessType::kRead);
  q.Admit(2, AccessType::kRead);
  EXPECT_EQ(q.A1inSize(), 2u);
  EXPECT_EQ(q.AmSize(), 0u);
}

TEST(TwoQTest, A1inEvictionGoesToGhost) {
  TwoQPolicy q(Opts(8, /*kin=*/0.25, /*kout=*/0.5));  // kin = 2, kout = 4.
  q.Admit(1, AccessType::kRead);
  q.Admit(2, AccessType::kRead);
  q.Admit(3, AccessType::kRead);  // |A1in| = 3 > kin.
  auto v = q.Evict();
  ASSERT_EQ(v, std::optional<PageId>(1));  // FIFO tail of A1in.
  EXPECT_TRUE(q.InGhost(1));
  EXPECT_EQ(q.A1outSize(), 1u);
}

TEST(TwoQTest, GhostHitPromotesToAm) {
  TwoQPolicy q(Opts(8));
  q.Admit(1, AccessType::kRead);
  q.Admit(2, AccessType::kRead);
  q.Admit(3, AccessType::kRead);
  ASSERT_EQ(q.Evict(), std::optional<PageId>(1));  // 1 -> ghost.
  q.Admit(1, AccessType::kRead);                   // Refault from ghost.
  EXPECT_EQ(q.AmSize(), 1u);
  EXPECT_FALSE(q.InGhost(1));
}

TEST(TwoQTest, A1inHitDoesNotPromote) {
  // 2Q's correlated-reference defense: a hit while still in A1in neither
  // moves the page nor promotes it.
  TwoQPolicy q(Opts(8));
  q.Admit(1, AccessType::kRead);
  q.RecordAccess(1, AccessType::kRead);
  q.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(q.A1inSize(), 1u);
  EXPECT_EQ(q.AmSize(), 0u);
}

TEST(TwoQTest, AmIsLruOrdered) {
  TwoQPolicy q(Opts(4, /*kin=*/0.25, /*kout=*/1.0));  // kin = 1, kout = 4.
  // Route pages 1 and 2 through the ghost into Am.
  q.Admit(1, AccessType::kRead);
  q.Admit(2, AccessType::kRead);   // |A1in| = 2 > 1 on next eviction.
  ASSERT_EQ(q.Evict(), std::optional<PageId>(1));
  ASSERT_EQ(q.Evict(), std::optional<PageId>(2));
  q.Admit(1, AccessType::kRead);   // Ghost hit -> Am.
  q.Admit(2, AccessType::kRead);   // Ghost hit -> Am.
  ASSERT_EQ(q.AmSize(), 2u);
  q.RecordAccess(1, AccessType::kRead);  // 1 becomes most recent.
  EXPECT_EQ(q.Evict(), std::optional<PageId>(2));  // Am LRU tail.
}

TEST(TwoQTest, GhostQueueIsBounded) {
  TwoQPolicy q(Opts(4, /*kin=*/0.25, /*kout=*/0.5));  // kout = 2.
  for (PageId p = 0; p < 10; ++p) {
    q.Admit(p, AccessType::kRead);
    q.Evict();
  }
  EXPECT_LE(q.A1outSize(), 2u);
}

TEST(TwoQTest, RemoveFromEitherQueue) {
  TwoQPolicy q(Opts(8, /*kin=*/0.25, /*kout=*/1.0));
  q.Admit(1, AccessType::kRead);
  q.Admit(2, AccessType::kRead);
  q.Admit(3, AccessType::kRead);
  ASSERT_EQ(q.Evict(), std::optional<PageId>(1));
  q.Admit(1, AccessType::kRead);  // In Am now.
  q.Remove(1);                    // Remove from Am.
  q.Remove(2);                    // Remove from A1in.
  EXPECT_EQ(q.ResidentCount(), 1u);
  EXPECT_EQ(q.Evict(), std::optional<PageId>(3));
}

TEST(TwoQTest, ScanResistance) {
  // A long one-touch scan must not displace the established hot set in Am.
  TwoQPolicy q(Opts(10, /*kin=*/0.2, /*kout=*/0.5));
  // Build a hot set {100, 101} in Am via ghost refaults.
  q.Admit(100, AccessType::kRead);
  q.Admit(101, AccessType::kRead);
  q.Evict();
  q.Evict();
  q.Admit(100, AccessType::kRead);
  q.Admit(101, AccessType::kRead);
  ASSERT_EQ(q.AmSize(), 2u);
  // Scan 50 cold pages with evictions keeping residency at 10.
  for (PageId p = 0; p < 50; ++p) {
    if (q.ResidentCount() == 10) {
      auto v = q.Evict();
      ASSERT_TRUE(v.has_value());
      ASSERT_NE(*v, 100u);
      ASSERT_NE(*v, 101u);
    }
    q.Admit(p, AccessType::kRead);
  }
  EXPECT_TRUE(q.IsResident(100));
  EXPECT_TRUE(q.IsResident(101));
}

}  // namespace
}  // namespace lruk
