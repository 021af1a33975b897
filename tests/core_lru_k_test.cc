// Semantics tests for LruKPolicy against hand-executed runs of the paper's
// Figure 2.1 pseudo-code. Time ticks once per RecordAccess/Admit, starting
// at 1.

#include "core/lru_k.h"

#include <optional>
#include <vector>

#include "gtest/gtest.h"

namespace lruk {
namespace {

LruKOptions Opts(int k, Timestamp crp = 0,
                 Timestamp rip = kInfinitePeriod) {
  LruKOptions o;
  o.k = k;
  o.correlated_reference_period = crp;
  o.retained_information_period = rip;
  return o;
}

TEST(LruKTest, NameReflectsK) {
  EXPECT_EQ(LruKPolicy(Opts(1)).Name(), "LRU-1");
  EXPECT_EQ(LruKPolicy(Opts(2)).Name(), "LRU-2");
  EXPECT_EQ(LruKPolicy(Opts(7)).Name(), "LRU-7");
}

TEST(LruKTest, SubsidiaryLruAmongInfiniteDistances) {
  // Three pages, one reference each: all have b_t(p,2) = infinity, so the
  // subsidiary LRU policy must order them by first reference.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.Evict(), std::nullopt);
}

TEST(LruKTest, InfiniteDistanceEvictedBeforeFiniteDistance) {
  // Page 1 gets two references (finite b) while page 2 has one (infinite);
  // page 2 must go first even though page 1 is older by last reference.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);       // t=1
  policy.Admit(2, AccessType::kRead);       // t=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: HIST(1)=[3,1]
  ASSERT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, MaxBackwardKDistanceIsVictim) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);         // t=1
  policy.Admit(2, AccessType::kRead);         // t=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: HIST(1)=[3,1]
  policy.RecordAccess(2, AccessType::kRead);  // t=4: HIST(2)=[4,2]
  // b(1,2) = 4-1 = 3 > b(2,2) = 4-2 = 2: page 1 is the victim.
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(3));
  EXPECT_EQ(policy.BackwardKDistance(2), std::optional<Timestamp>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

TEST(LruKTest, RecencyOfLastReferenceDoesNotOverrideKDistance) {
  // The defining difference from LRU: page 2's most recent reference is
  // newer, but its second-most-recent is older, so page 2 is evicted.
  LruKPolicy policy(Opts(2));
  policy.Admit(2, AccessType::kRead);         // t=1
  policy.RecordAccess(2, AccessType::kRead);  // t=2: HIST(2)=[2,1]
  policy.Admit(1, AccessType::kRead);         // t=3
  policy.RecordAccess(1, AccessType::kRead);  // t=4: HIST(1)=[4,3]
  policy.RecordAccess(2, AccessType::kRead);  // t=5: HIST(2)=[5,2]
  // b(1,2) = 5-3 = 2; b(2,2) = 5-2 = 3. LRU would evict 1 (older LAST);
  // LRU-2 must evict 2.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, HistoryShiftKeepsKMostRecent) {
  LruKPolicy policy(Opts(3));
  policy.Admit(9, AccessType::kRead);  // t=1
  for (Timestamp t = 2; t <= 5; ++t) {
    policy.RecordAccess(9, AccessType::kRead);  // t=2..5
  }
  const HistoryBlock* block = policy.DebugBlock(9);
  ASSERT_NE(block, nullptr);
  // The three most recent of {1,2,3,4,5}.
  EXPECT_EQ(block->hist[0], 5u);
  EXPECT_EQ(block->hist[1], 4u);
  EXPECT_EQ(block->hist[2], 3u);
  EXPECT_EQ(policy.BackwardKDistance(9), std::optional<Timestamp>(2));
}

TEST(LruKTest, CorrelatedReferencesOnlyMoveLast) {
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1: HIST=[1,0], LAST=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: gap 1 <= 2, correlated
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 1u);
  EXPECT_EQ(block->hist[1], 0u);
  EXPECT_EQ(block->last, 2u);
}

TEST(LruKTest, UncorrelatedReferenceCollapsesCorrelationPeriod) {
  // Figure 2.1: on an uncorrelated reference, earlier history shifts by
  // the length of the closed correlated period so the burst counts as one
  // reference with zero width.
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1: HIST=[1,0], LAST=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: correlated, LAST=2
  policy.RecordAccess(1, AccessType::kRead);  // t=3: correlated, LAST=3
  policy.Admit(2, AccessType::kRead);         // t=4
  policy.Admit(3, AccessType::kRead);         // t=5
  policy.RecordAccess(1, AccessType::kRead);  // t=6: gap 3 > 2, uncorrelated
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  // correlation_period = LAST - HIST(1,1) = 3 - 1 = 2;
  // HIST(1,2) = old HIST(1,1) + 2 = 3; HIST(1,1) = 6.
  EXPECT_EQ(block->hist[0], 6u);
  EXPECT_EQ(block->hist[1], 3u);
  EXPECT_EQ(block->last, 6u);
  // Interarrival credited: 6 - 3 = 3, the gap between correlation periods.
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(3));
}

TEST(LruKTest, ShiftNeverFabricatesUnknownEntries) {
  // K=3 with a nonzero correlation adjustment: the literal Figure 2.1 loop
  // would set HIST(p,3) = 0 + correlation_period; ours must keep it 0.
  LruKPolicy policy(Opts(3, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);         // t=1
  policy.RecordAccess(1, AccessType::kRead);  // t=2: correlated
  policy.Admit(2, AccessType::kRead);         // t=3
  policy.Admit(3, AccessType::kRead);         // t=4
  policy.RecordAccess(1, AccessType::kRead);  // t=5: uncorrelated, corr=1
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 5u);
  EXPECT_EQ(block->hist[1], 2u);  // 1 + correlation period 1.
  EXPECT_EQ(block->hist[2], 0u);  // Still unknown.
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
}

TEST(LruKTest, EvictionEligibilityHonorsCorrelatedPeriod) {
  LruKPolicy policy(Opts(2, /*crp=*/2));
  policy.Admit(1, AccessType::kRead);  // t=1
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  policy.Admit(4, AccessType::kRead);  // t=4
  // Eviction happens at prospective t=5: pages 3 (gap 2) and 4 (gap 1) are
  // inside the correlated period; among eligible {1,2} subsidiary LRU
  // picks 1.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 0u);
}

TEST(LruKTest, FallbackEvictionWhenNoPageEligible) {
  LruKPolicy policy(Opts(2, /*crp=*/10));
  policy.Admit(1, AccessType::kRead);  // t=1
  policy.Admit(2, AccessType::kRead);  // t=2
  // Prospective t=3: both pages are within the CRP. The paper's loop finds
  // nothing; we must still free a slot and count the fallback.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 1u);
}

TEST(LruKTest, HistoryRetainedPastResidence) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_FALSE(policy.IsResident(1));
  EXPECT_EQ(policy.HistorySize(), 1u);  // Block survives the eviction.

  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(1, AccessType::kRead);  // t=3: history shift -> HIST=[3,1]
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 3u);
  EXPECT_EQ(block->hist[1], 1u);
  // Page 1 now has finite b (=2) while page 2 is infinite: 2 is evicted,
  // which is exactly the behavior the Retained Information Problem section
  // motivates.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
}

TEST(LruKTest, RetainedInformationPeriodExpiresHistory) {
  // RIP = 3 ticks; after eviction at t=1, re-admitting at t=6 is too late:
  // the page must look brand new (infinite distance).
  LruKOptions options = Opts(2, 0, /*rip=*/3);
  options.purge_interval = 0;  // Exercise the lazy (GetOrCreate) path.
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(10, AccessType::kRead);  // t=2
  policy.Admit(11, AccessType::kRead);  // t=3
  policy.Admit(12, AccessType::kRead);  // t=4
  policy.Admit(13, AccessType::kRead);  // t=5
  policy.Admit(1, AccessType::kRead);   // t=6: 6-1 > 3, history expired
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 6u);
  EXPECT_EQ(block->hist[1], 0u);  // No second reference known.
  EXPECT_EQ(policy.BackwardKDistance(1), std::nullopt);
}

TEST(LruKTest, ReAdmissionWithinRipKeepsHistory) {
  LruKOptions options = Opts(2, 0, /*rip=*/100);
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(1, AccessType::kRead);  // t=3: within RIP
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(2));
}

TEST(LruKTest, PurgeHistoryDropsExpiredBlocks) {
  LruKOptions options = Opts(2, 0, /*rip=*/2);
  options.purge_interval = 0;
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  policy.Admit(4, AccessType::kRead);  // t=4
  EXPECT_EQ(policy.HistorySize(), 4u);
  // Page 1's block (last=1) is stale at t=4; resident pages are immune.
  EXPECT_EQ(policy.PurgeHistory(), 1u);
  EXPECT_EQ(policy.HistorySize(), 3u);
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, AutomaticDemonPurges) {
  LruKOptions options = Opts(2, 0, /*rip=*/1);
  options.purge_interval = 4;  // Demon runs when time % 4 == 0.
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);  // t=1
  ASSERT_TRUE(policy.Evict().has_value());
  policy.Admit(2, AccessType::kRead);  // t=2
  policy.Admit(3, AccessType::kRead);  // t=3
  EXPECT_EQ(policy.HistorySize(), 3u);
  policy.Admit(4, AccessType::kRead);  // t=4: demon fires, page 1 purged.
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, RemoveErasesHistory) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);
  policy.Remove(1);
  EXPECT_FALSE(policy.IsResident(1));
  EXPECT_EQ(policy.HistorySize(), 0u);
  EXPECT_EQ(policy.DebugBlock(1), nullptr);
}

TEST(LruKTest, CountsStayConsistent) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.ResidentCount(), 3u);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.ResidentCount(), 2u);
  policy.Remove(2);
  EXPECT_EQ(policy.ResidentCount(), 1u);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.ResidentCount(), 0u);
  EXPECT_EQ(policy.Evict(), std::nullopt);
}

TEST(LruKTest, CurrentTimeCountsAllReferences) {
  LruKPolicy policy(Opts(2, /*crp=*/5));
  policy.Admit(1, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);  // Correlated, still a tick.
  policy.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(policy.CurrentTime(), 3u);
}

TEST(LruKTest, EvictDoesNotTickClock) {
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Evict();
  EXPECT_EQ(policy.CurrentTime(), 1u);
}

TEST(LruKTest, K1BehavesAsClassicalLruOnBasicSequence) {
  LruKPolicy policy(Opts(1));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

TEST(LruKTest, LinearScanModeMatchesBasicScenario) {
  LruKOptions options = Opts(2);
  options.victim_index = VictimIndex::kLinear;
  LruKPolicy policy(options);
  EXPECT_EQ(policy.victim_index(), VictimIndex::kLinear);
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
}

// --- Lazy-heap victim index (the default; DESIGN.md "Victim index
// structures") ---

TEST(LruKLazyHeapTest, HitsAddNoHeapEntries) {
  // The whole point of the lazy heap: a hit rewrites the history block and
  // touches nothing else. One entry per admitted page, zero growth across
  // an arbitrary number of re-references.
  LruKPolicy policy(Opts(2));
  ASSERT_EQ(policy.victim_index(), VictimIndex::kLazyHeap);
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  EXPECT_EQ(policy.VictimHeapSize(), 2u);
  for (int i = 0; i < 1000; ++i) {
    policy.RecordAccess(1, AccessType::kRead);
    policy.RecordAccess(2, AccessType::kRead);
  }
  EXPECT_EQ(policy.VictimHeapSize(), 2u);
}

TEST(LruKLazyHeapTest, RemoveReadmitChurnDoesNotGrowHeapUnbounded) {
  // Remove leaves the page's heap entry dangling and the re-Admit pushes a
  // fresh one; the dead entries are reaped when evictions pop them. A
  // delete/re-create loop interleaved with misses must keep the heap near
  // one entry per page instead of growing with the cycle count.
  constexpr PageId kResident = 8;
  LruKPolicy policy(Opts(2));
  for (PageId p = 1; p <= kResident; ++p) {
    policy.Admit(p, AccessType::kRead);
  }
  for (int i = 0; i < 1000; ++i) {
    PageId p = 1 + static_cast<PageId>(i) % kResident;
    policy.Remove(p);
    policy.Admit(p, AccessType::kRead);
    std::optional<PageId> victim = policy.Evict();
    ASSERT_TRUE(victim.has_value());
    policy.Admit(*victim, AccessType::kRead);
    ASSERT_EQ(policy.ResidentCount(), kResident);
    ASSERT_LE(policy.VictimHeapSize(), 2 * kResident) << "cycle " << i;
  }
}

TEST(LruKLazyHeapTest, StaleEntriesStillYieldTheTrueMinimum) {
  // Reference pattern chosen so the heap's stored keys are stale for every
  // page at eviction time; the pop-and-rekey protocol must still surface
  // the true minimum (page 2: its second reference is oldest).
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);       // t=1
  policy.Admit(2, AccessType::kRead);       // t=2
  policy.Admit(3, AccessType::kRead);       // t=3
  policy.RecordAccess(2, AccessType::kRead);  // t=4: HIST(2)={4,2}
  policy.RecordAccess(1, AccessType::kRead);  // t=5: HIST(1)={5,1}
  policy.RecordAccess(3, AccessType::kRead);  // t=6: HIST(3)={6,3}
  policy.RecordAccess(1, AccessType::kRead);  // t=7: HIST(1)={7,5}
  policy.RecordAccess(3, AccessType::kRead);  // t=8: HIST(3)={8,6}
  // Backward-2 keys: 1 -> 5, 2 -> 2, 3 -> 6; minimum is page 2.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(3));
}

TEST(LruKLazyHeapTest, FallbackIgnoresCrpLikeTheOtherIndexes) {
  // Every page inside its CRP: the heap's fallback must pick the best key
  // regardless of eligibility and count the event, like the linear scan.
  LruKOptions options = Opts(2, /*crp=*/1000);
  LruKPolicy policy(options);
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Admit(3, AccessType::kRead);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.fallback_evictions(), 1u);
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.fallback_evictions(), 2u);
}

TEST(LruKLazyHeapTest, RemoveAndReadmitKeepsHeapConsistent) {
  // Remove leaves a dangling heap entry (reaped lazily); re-admission must
  // push a fresh entry and eviction must still work.
  LruKPolicy policy(Opts(2));
  policy.Admit(1, AccessType::kRead);
  policy.Admit(2, AccessType::kRead);
  policy.Remove(1);
  policy.Admit(1, AccessType::kRead);  // New history, fresh heap entry.
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(policy.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(policy.Evict(), std::nullopt);
}

// ---------------------------------------------------------------------------
// EvictBatch exactness. One EvictBatch(k) call must nominate exactly the
// sequence k sequential Evict() calls would return — for both victim
// indexes — and restoring unused nominees must leave the policy as if they
// had never been nominated (deferred retention, no history churn).

// Mixed-distance state: 12 admissions, skewed re-references so backward
// K-distances differ, two pages removed mid-range (dead heap entries), and
// one infinite-distance straggler re-referenced late.
void DriveBatchTrace(LruKPolicy& p) {
  for (PageId q = 1; q <= 12; ++q) p.Admit(q, AccessType::kRead);
  for (int lap = 0; lap < 3; ++lap) {
    for (PageId q = 1; q <= 6; ++q) {
      if ((q + lap) % 2 == 0) p.RecordAccess(q, AccessType::kRead);
    }
  }
  p.RecordAccess(9, AccessType::kRead);
  p.Remove(4);
  p.Remove(10);
}

LruKOptions IndexedOpts(VictimIndex index) {
  LruKOptions o;
  o.k = 2;
  o.victim_index = index;
  return o;
}

class LruKEvictBatchTest : public ::testing::TestWithParam<VictimIndex> {};

TEST_P(LruKEvictBatchTest, MatchesSequentialEvictsExactly) {
  LruKPolicy sequential(IndexedOpts(GetParam()));
  LruKPolicy batched(IndexedOpts(GetParam()));
  DriveBatchTrace(sequential);
  DriveBatchTrace(batched);

  std::vector<PageId> expected;
  while (auto v = sequential.Evict()) expected.push_back(*v);
  ASSERT_EQ(expected.size(), 10u);  // 12 admitted, 2 removed.

  std::vector<PageId> batch;
  EXPECT_EQ(batched.EvictBatch(4, &batch), 4u);  // A prefix...
  std::vector<PageId> rest;
  EXPECT_EQ(batched.EvictBatch(64, &rest), 6u);  // ...then a short tail.
  batch.insert(batch.end(), rest.begin(), rest.end());
  EXPECT_EQ(batch, expected);
}

TEST_P(LruKEvictBatchTest, RestoredNomineesAreAsIfNeverNominated) {
  LruKPolicy policy(IndexedOpts(GetParam()));
  DriveBatchTrace(policy);
  const size_t residents = policy.ResidentCount();

  std::vector<PageId> first;
  ASSERT_EQ(policy.EvictBatch(5, &first), 5u);
  for (size_t i = first.size(); i-- > 0;) policy.Restore(first[i]);
  EXPECT_EQ(policy.ResidentCount(), residents);

  // Nominating again yields the exact same sequence: no clock tick
  // happened, and every Restore reattached the retained history block
  // instead of re-admitting fresh.
  std::vector<PageId> second;
  ASSERT_EQ(policy.EvictBatch(5, &second), 5u);
  EXPECT_EQ(second, first);
}

TEST_P(LruKEvictBatchTest, ConsumedMidSequenceMatchesEvictRestore) {
  // Batched caller: nominate 3, consume the middle nominee, hand the
  // other two back in reverse nomination order. Reference caller: two
  // sequential Evicts to reach the same victim, then Restore the skipped
  // first nominee. Both policies must agree on every later eviction.
  LruKPolicy batched(IndexedOpts(GetParam()));
  LruKPolicy reference(IndexedOpts(GetParam()));
  DriveBatchTrace(batched);
  DriveBatchTrace(reference);

  std::vector<PageId> nominees;
  ASSERT_EQ(batched.EvictBatch(3, &nominees), 3u);
  batched.Restore(nominees[2]);
  batched.Restore(nominees[0]);

  ASSERT_EQ(reference.Evict(), std::optional<PageId>(nominees[0]));
  ASSERT_EQ(reference.Evict(), std::optional<PageId>(nominees[1]));
  reference.Restore(nominees[0]);

  EXPECT_EQ(batched.ResidentCount(), reference.ResidentCount());
  while (true) {
    auto a = batched.Evict();
    auto b = reference.Evict();
    EXPECT_EQ(a, b);
    if (!a.has_value() || !b.has_value()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVictimIndexes, LruKEvictBatchTest,
                         ::testing::Values(VictimIndex::kLazyHeap,
                                           VictimIndex::kLinear));

}  // namespace
}  // namespace lruk
