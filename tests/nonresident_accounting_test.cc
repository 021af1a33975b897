// Tests for HistoryTable's non-resident accounting: the exact count of
// retained history-only blocks (HistoryBlock::in_nonresident), kept with
// no ordered index when there is no budget and with one under a budget.
// Every scenario runs unbudgeted (0) and budgeted (> 0); a Zipf lockstep
// proves the two paths make identical decisions.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/history_table.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

// Blocks flagged as counted non-resident history, found by a full scan.
size_t CountFlagged(const HistoryTable& table) {
  size_t n = 0;
  table.ForEach([&](PageId, const HistoryBlock& block) {
    if (block.in_nonresident) {
      EXPECT_FALSE(block.resident);
      ++n;
    }
  });
  return n;
}

class NonResidentAccountingTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t budget() const { return GetParam(); }

  LruKPolicy MakePolicy(Timestamp rip = kInfinitePeriod) const {
    LruKOptions options;
    options.k = 2;
    options.retained_information_period = rip;
    options.purge_interval = 0;  // Purges run only when a test asks.
    options.max_nonresident_history = budget();
    return LruKPolicy(options);
  }
};

// The budget used is above every count the scenarios reach, so the
// expected counts are the same with and without it.
INSTANTIATE_TEST_SUITE_P(Budgets, NonResidentAccountingTest,
                         ::testing::Values(size_t{0}, size_t{64}));

TEST_P(NonResidentAccountingTest, TableCountsOnlyRetainedBlocks) {
  HistoryTable table(2, kInfinitePeriod, budget());
  bool had = false;
  for (PageId p = 1; p <= 5; ++p) {
    HistoryBlock& block = table.GetOrCreate(p, p, &had);
    block.resident = true;
    block.last = p;
  }
  for (PageId p = 1; p <= 3; ++p) table.OnEvicted(p, *table.Find(p));
  EXPECT_EQ(table.NonResidentCount(), 3u);
  EXPECT_EQ(CountFlagged(table), 3u);

  // Erase of a non-resident page.
  table.Erase(2);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_EQ(table.NonResidentCount(), 2u);

  // A block marked non-resident without retention (a deferred nominee) is
  // not counted, and taking it back changes nothing.
  table.Find(4)->resident = false;
  EXPECT_EQ(table.NonResidentCount(), 2u);
  table.GetOrCreate(4, 6, &had);
  EXPECT_TRUE(had);
  table.Find(4)->resident = true;
  EXPECT_EQ(table.NonResidentCount(), 2u);

  // Erase of a resident page leaves the count alone.
  table.Erase(5);
  EXPECT_EQ(table.NonResidentCount(), 2u);

  // Re-admission takes a retained block back.
  table.GetOrCreate(1, 7, &had);
  EXPECT_TRUE(had);
  EXPECT_FALSE(table.Find(1)->in_nonresident);
  table.Find(1)->resident = true;
  EXPECT_EQ(table.NonResidentCount(), 1u);

  table.Erase(3);
  EXPECT_EQ(table.NonResidentCount(), 0u);
  EXPECT_EQ(CountFlagged(table), 0u);
  EXPECT_EQ(table.size(), 2u);  // Pages 1 and 4, both resident.
}

TEST_P(NonResidentAccountingTest, TablePurgeUnderFiniteRip) {
  HistoryTable table(2, /*retained_information_period=*/10, budget());
  bool had = false;
  const Timestamp lasts[] = {1, 2, 20, 21};
  for (PageId p = 1; p <= 4; ++p) {
    HistoryBlock& block = table.GetOrCreate(p, lasts[p - 1], &had);
    block.resident = true;
    block.last = lasts[p - 1];
    table.OnEvicted(p, block);
  }
  // Resident and old: never purged.
  HistoryBlock& resident = table.GetOrCreate(5, 1, &had);
  resident.resident = true;
  resident.last = 1;
  // Non-resident, old, but never retained: purged without touching the
  // count.
  HistoryBlock& deferred = table.GetOrCreate(6, 3, &had);
  deferred.last = 3;
  EXPECT_EQ(table.NonResidentCount(), 4u);

  EXPECT_EQ(table.PurgeExpired(25), 3u);  // Pages 1, 2 and 6.
  EXPECT_EQ(table.NonResidentCount(), 2u);
  EXPECT_EQ(CountFlagged(table), 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_NE(table.Find(3), nullptr);
  EXPECT_NE(table.Find(4), nullptr);
  EXPECT_NE(table.Find(5), nullptr);
}

TEST_P(NonResidentAccountingTest, PolicyBatchRestoreReadmitAndEvict) {
  LruKPolicy policy = MakePolicy();
  for (PageId p = 1; p <= 6; ++p) policy.Admit(p, AccessType::kRead);
  for (PageId p = 4; p <= 6; ++p) policy.RecordAccess(p, AccessType::kRead);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);

  std::vector<PageId> nominees;
  ASSERT_EQ(policy.EvictBatch(3, &nominees), 3u);
  EXPECT_EQ(nominees, (std::vector<PageId>{1, 2, 3}));
  // Deferred nominees are not counted until they settle.
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  EXPECT_EQ(policy.PendingDeferredEvictions(), 3u);

  // Restored before the settle: never counted.
  policy.Restore(nominees[0]);
  policy.Restore(nominees[1]);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  EXPECT_FALSE(policy.DebugBlock(nominees[0])->in_nonresident);

  policy.SettleEvictions();
  EXPECT_EQ(policy.PendingDeferredEvictions(), 0u);
  EXPECT_EQ(policy.NonResidentHistorySize(), 1u);
  EXPECT_TRUE(policy.DebugBlock(nominees[2])->in_nonresident);
  EXPECT_EQ(policy.HistorySize(),
            policy.ResidentCount() + policy.NonResidentHistorySize());

  // Evict -> re-Admit.
  policy.Admit(nominees[2], AccessType::kRead);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  std::optional<PageId> victim = policy.Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(policy.NonResidentHistorySize(), 1u);
  policy.Admit(*victim, AccessType::kRead);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);

  // Restore after a settled eviction takes the retained block back.
  victim = policy.Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(policy.NonResidentHistorySize(), 1u);
  policy.Restore(*victim);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(policy.Evict().has_value());
  EXPECT_EQ(policy.NonResidentHistorySize(), 3u);
  EXPECT_EQ(policy.HistorySize(),
            policy.ResidentCount() + policy.NonResidentHistorySize());
}

TEST_P(NonResidentAccountingTest, PolicyPurgeUnderFiniteRip) {
  LruKPolicy policy = MakePolicy(/*rip=*/10);
  for (PageId p = 1; p <= 6; ++p) policy.Admit(p, AccessType::kRead);
  ASSERT_TRUE(policy.Evict().has_value());
  ASSERT_TRUE(policy.Evict().has_value());
  EXPECT_EQ(policy.NonResidentHistorySize(), 2u);

  // A nominee still deferred when its history expires.
  std::vector<PageId> nominees;
  ASSERT_EQ(policy.EvictBatch(1, &nominees), 1u);
  EXPECT_EQ(policy.NonResidentHistorySize(), 2u);
  for (int i = 0; i < 20; ++i) {
    policy.RecordAccess(4 + i % 3, AccessType::kRead);
  }
  EXPECT_EQ(policy.PurgeHistory(), 3u);
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  EXPECT_EQ(policy.DebugBlock(nominees[0]), nullptr);
  policy.SettleEvictions();
  EXPECT_EQ(policy.NonResidentHistorySize(), 0u);
  EXPECT_EQ(policy.HistorySize(), policy.ResidentCount());
}

// One policy without a budget, one with a budget above the page universe:
// the budget never binds, so the only difference is whether the ordered
// index is kept. Every decision and count must match, step for step.
struct LockstepParams {
  Timestamp rip;
  uint64_t seed;
};

class NonResidentLockstepTest
    : public ::testing::TestWithParam<LockstepParams> {};

INSTANTIATE_TEST_SUITE_P(
    Rips, NonResidentLockstepTest,
    ::testing::Values(LockstepParams{kInfinitePeriod, 11},
                      LockstepParams{400, 12}),
    [](const ::testing::TestParamInfo<LockstepParams>& info) {
      return info.param.rip == kInfinitePeriod ? "InfiniteRip" : "FiniteRip";
    });

TEST_P(NonResidentLockstepTest, UnindexedMatchesIndexed) {
  constexpr size_t kCapacity = 100;
  constexpr uint64_t kUniverse = 1000;
  constexpr int kRefs = 20000;
  LruKOptions options;
  options.k = 2;
  options.retained_information_period = GetParam().rip;
  options.purge_interval = 256;
  LruKPolicy unindexed(options);
  options.max_nonresident_history = 2 * kUniverse;
  LruKPolicy indexed(options);
  LruKPolicy* both[] = {&unindexed, &indexed};

  RandomEngine rng(GetParam().seed);
  RecursiveSkewDistribution dist(0.8, 0.2, kUniverse);
  std::vector<PageId> evicted_a, evicted_b;
  uint64_t misses = 0;
  for (int i = 0; i < kRefs; ++i) {
    PageId p = dist.Sample(rng) - 1;
    bool resident = unindexed.IsResident(p);
    ASSERT_EQ(resident, indexed.IsResident(p)) << "ref " << i;
    if (resident && i % 997 == 0) {
      // A deleted page: its history is erased.
      for (LruKPolicy* pol : both) pol->Remove(p);
    } else if (resident) {
      for (LruKPolicy* pol : both) pol->RecordAccess(p, AccessType::kRead);
    } else {
      ++misses;
      if (unindexed.ResidentCount() == kCapacity) {
        if (misses % 3 == 0) {
          // Batched nomination: use the first, hand the rest back.
          std::vector<PageId> a, b;
          unindexed.EvictBatch(4, &a);
          indexed.EvictBatch(4, &b);
          ASSERT_EQ(a, b) << "ref " << i;
          ASSERT_FALSE(a.empty());
          for (size_t j = 1; j < a.size(); ++j) {
            unindexed.Restore(a[j]);
            indexed.Restore(b[j]);
          }
          evicted_a.push_back(a[0]);
          evicted_b.push_back(b[0]);
        } else {
          if (misses % 7 == 0) {
            // A failed write-back: the victim comes straight back.
            std::optional<PageId> va = unindexed.Evict();
            std::optional<PageId> vb = indexed.Evict();
            ASSERT_EQ(va, vb) << "ref " << i;
            unindexed.Restore(*va);
            indexed.Restore(*vb);
          }
          std::optional<PageId> va = unindexed.Evict();
          std::optional<PageId> vb = indexed.Evict();
          ASSERT_TRUE(va.has_value());
          evicted_a.push_back(*va);
          evicted_b.push_back(*vb);
        }
      }
      for (LruKPolicy* pol : both) pol->Admit(p, AccessType::kRead);
    }
    ASSERT_EQ(evicted_a, evicted_b) << "ref " << i;
    ASSERT_EQ(unindexed.NonResidentHistorySize(),
              indexed.NonResidentHistorySize())
        << "ref " << i;
    ASSERT_EQ(unindexed.HistorySize(), indexed.HistorySize()) << "ref " << i;
    ASSERT_EQ(unindexed.HistorySize(),
              unindexed.ResidentCount() + unindexed.NonResidentHistorySize())
        << "ref " << i;
  }
  // The run did evict and retain history, and the budget never bound.
  EXPECT_GT(evicted_a.size(), 1000u);
  EXPECT_GT(unindexed.NonResidentHistorySize(), 0u);
  EXPECT_LT(indexed.NonResidentHistorySize(), 2 * kUniverse);
}

}  // namespace
}  // namespace lruk
