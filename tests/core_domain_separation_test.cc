#include "core/domain_separation.h"

#include <optional>

#include "gtest/gtest.h"

namespace lruk {
namespace {

// Two domains: even pages -> 0, odd pages -> 1.
DomainSeparationOptions EvenOdd(size_t even_cap, size_t odd_cap) {
  DomainSeparationOptions options;
  options.classifier = [](PageId p) { return static_cast<uint32_t>(p % 2); };
  options.domain_capacities = {even_cap, odd_cap};
  return options;
}

TEST(DomainSeparationTest, PagesLandInTheirDomain) {
  DomainSeparationPolicy ds(EvenOdd(4, 4));
  ds.Admit(0, AccessType::kRead);
  ds.Admit(1, AccessType::kRead);
  ds.Admit(2, AccessType::kRead);
  EXPECT_EQ(ds.DomainResidentCount(0), 2u);
  EXPECT_EQ(ds.DomainResidentCount(1), 1u);
  EXPECT_EQ(ds.ResidentCount(), 3u);
}

TEST(DomainSeparationTest, DomainsCompeteOnlyInternally) {
  // The defining property: an overflowing domain evicts its own pages even
  // while the other domain has free frames.
  DomainSeparationPolicy ds(EvenOdd(2, 4));
  ds.Admit(0, AccessType::kRead);
  ds.Admit(2, AccessType::kRead);
  ds.Admit(4, AccessType::kRead);  // Even domain full: evicts LRU (0).
  EXPECT_FALSE(ds.IsResident(0));
  EXPECT_TRUE(ds.IsResident(2));
  EXPECT_TRUE(ds.IsResident(4));
  EXPECT_EQ(ds.DomainResidentCount(0), 2u);
  auto internal = ds.TakeInternalEvictions();
  ASSERT_EQ(internal.size(), 1u);
  EXPECT_EQ(internal[0], 0u);
  EXPECT_TRUE(ds.TakeInternalEvictions().empty());  // Drained.
}

TEST(DomainSeparationTest, EvictPrefersPendingDomain) {
  DomainSeparationPolicy ds(EvenOdd(2, 2));
  ds.Admit(0, AccessType::kRead);
  ds.Admit(2, AccessType::kRead);
  ds.Admit(1, AccessType::kRead);
  ds.Admit(3, AccessType::kRead);  // Total = 4 = sum of capacities.
  ds.PrepareAdmit(5);              // Odd page coming in.
  auto victim = ds.Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim % 2, 1u) << "victim must come from the odd domain";
  EXPECT_EQ(*victim, 1u) << "LRU within the domain";
}

TEST(DomainSeparationTest, LruWithinDomain) {
  DomainSeparationPolicy ds(EvenOdd(3, 3));
  ds.Admit(0, AccessType::kRead);
  ds.Admit(2, AccessType::kRead);
  ds.Admit(4, AccessType::kRead);
  ds.RecordAccess(0, AccessType::kRead);  // Refresh 0.
  ds.Admit(6, AccessType::kRead);         // Evicts 2, not 0.
  EXPECT_TRUE(ds.IsResident(0));
  EXPECT_FALSE(ds.IsResident(2));
  auto internal = ds.TakeInternalEvictions();
  ASSERT_EQ(internal.size(), 1u);
  EXPECT_EQ(internal[0], 2u);
}

TEST(DomainSeparationTest, RemoveAndEnumeration) {
  DomainSeparationPolicy ds(EvenOdd(4, 4));
  for (PageId p = 0; p < 6; ++p) ds.Admit(p, AccessType::kRead);
  ds.Remove(3);
  EXPECT_FALSE(ds.IsResident(3));
  size_t seen = 0;
  ds.ForEachResident([&seen](PageId) { ++seen; });
  EXPECT_EQ(seen, 5u);
}

TEST(DomainSeparationTest, ApproximatesTunedPoolsOnTwoPoolWorkload) {
  // Sanity: on alternating hot/cold references with the ideal partition,
  // the hot domain reaches a perfect hit ratio after the fill phase —
  // the Section 1.1 "buffer all the B-tree leaf pages" configuration.
  constexpr PageId kHotPages = 8;
  DomainSeparationOptions options;
  options.classifier = [](PageId p) {
    return static_cast<uint32_t>(p < kHotPages ? 0 : 1);
  };
  options.domain_capacities = {kHotPages, 4};
  DomainSeparationPolicy ds(options);
  // Fill the hot domain.
  for (PageId p = 0; p < kHotPages; ++p) ds.Admit(p, AccessType::kRead);
  // Stream cold pages through while touching hot pages: hot never evicted.
  for (int i = 0; i < 200; ++i) {
    ds.RecordAccess(i % kHotPages, AccessType::kRead);
    PageId cold = 1000 + i;
    ds.Admit(cold, AccessType::kRead);
  }
  for (PageId p = 0; p < kHotPages; ++p) {
    EXPECT_TRUE(ds.IsResident(p)) << "hot page " << p;
  }
  EXPECT_EQ(ds.DomainResidentCount(1), 4u);
}

}  // namespace
}  // namespace lruk
