// Baseline-policy tests: per-policy semantics plus a parameterized
// interface-contract suite every ReplacementPolicy must satisfy.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/a0.h"
#include "core/arc.h"
#include "core/clock_policy.h"
#include "core/domain_separation.h"
#include "core/fifo.h"
#include "core/gclock.h"
#include "core/lfu.h"
#include "core/lrd.h"
#include "core/lru.h"
#include "core/lru_k.h"
#include "core/mru.h"
#include "core/policy_factory.h"
#include "core/random_policy.h"
#include "core/two_q.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

// ---------- LFU ----------

TEST(LfuTest, EvictsLowestCount) {
  LfuPolicy lfu;
  lfu.Admit(1, AccessType::kRead);
  lfu.Admit(2, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);
  lfu.RecordAccess(2, AccessType::kRead);
  EXPECT_EQ(lfu.ReferenceCount(1), 3u);
  EXPECT_EQ(lfu.ReferenceCount(2), 2u);
  EXPECT_EQ(lfu.Evict(), std::optional<PageId>(2));
}

TEST(LfuTest, TieBrokenByLeastRecentUse) {
  LfuPolicy lfu;
  lfu.Admit(1, AccessType::kRead);
  lfu.Admit(2, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);  // Counts tie at 2 after this...
  lfu.RecordAccess(2, AccessType::kRead);  // ...and 2 is more recent.
  EXPECT_EQ(lfu.Evict(), std::optional<PageId>(1));
}

TEST(LfuTest, NeverForgetsByDefault) {
  // The paper's LFU (Section 4.3) keeps counts across residencies.
  LfuPolicy lfu;
  lfu.Admit(1, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);
  ASSERT_EQ(lfu.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(lfu.ReferenceCount(1), 3u);  // Survives the eviction.
  lfu.Admit(2, AccessType::kRead);
  lfu.Admit(1, AccessType::kRead);  // Count becomes 4.
  // Page 2 (count 1) loses to page 1 (count 4) despite being resident
  // longer: old fame protects page 1.
  EXPECT_EQ(lfu.Evict(), std::optional<PageId>(2));
}

TEST(LfuTest, ForgetOnEvictionVariantResetsCounts) {
  LfuOptions options;
  options.forget_on_eviction = true;
  LfuPolicy lfu(options);
  EXPECT_EQ(lfu.Name(), "LFU-inbuf");
  lfu.Admit(1, AccessType::kRead);
  lfu.RecordAccess(1, AccessType::kRead);
  ASSERT_EQ(lfu.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(lfu.ReferenceCount(1), 0u);
}

// ---------- FIFO ----------

TEST(FifoTest, EvictsInArrivalOrderIgnoringAccesses) {
  FifoPolicy fifo;
  fifo.Admit(1, AccessType::kRead);
  fifo.Admit(2, AccessType::kRead);
  fifo.Admit(3, AccessType::kRead);
  fifo.RecordAccess(1, AccessType::kRead);  // Must not refresh.
  fifo.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(fifo.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(fifo.Evict(), std::optional<PageId>(2));
  EXPECT_EQ(fifo.Evict(), std::optional<PageId>(3));
}

// ---------- MRU ----------

TEST(MruTest, EvictsMostRecentlyUsed) {
  MruPolicy mru;
  mru.Admit(1, AccessType::kRead);
  mru.Admit(2, AccessType::kRead);
  mru.Admit(3, AccessType::kRead);
  mru.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(mru.Evict(), std::optional<PageId>(1));
  EXPECT_EQ(mru.Evict(), std::optional<PageId>(3));
  EXPECT_EQ(mru.Evict(), std::optional<PageId>(2));
}

// ---------- CLOCK ----------

TEST(ClockTest, SecondChanceProtectsReferencedPages) {
  ClockPolicy clock;
  clock.Admit(1, AccessType::kRead);
  clock.Admit(2, AccessType::kRead);
  clock.Admit(3, AccessType::kRead);
  // All three still carry their admission reference bit; the first sweep
  // clears them, the second evicts the first swept page.
  auto v1 = clock.Evict();
  ASSERT_TRUE(v1.has_value());
  // Re-reference a survivor: it must outlive the next unreferenced page.
  std::vector<PageId> alive;
  for (PageId p : {PageId{1}, PageId{2}, PageId{3}}) {
    if (clock.IsResident(p)) alive.push_back(p);
  }
  ASSERT_EQ(alive.size(), 2u);
  clock.RecordAccess(alive[0], AccessType::kRead);
  auto v2 = clock.Evict();
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, alive[1]);
}

TEST(ClockTest, EvictAllThenEmpty) {
  ClockPolicy clock;
  clock.Admit(1, AccessType::kRead);
  clock.Admit(2, AccessType::kRead);
  EXPECT_TRUE(clock.Evict().has_value());
  EXPECT_TRUE(clock.Evict().has_value());
  EXPECT_EQ(clock.Evict(), std::nullopt);
}

TEST(ClockTest, RemoveUnderTheHand) {
  ClockPolicy clock;
  clock.Admit(1, AccessType::kRead);
  clock.Remove(1);
  EXPECT_EQ(clock.ResidentCount(), 0u);
  clock.Admit(2, AccessType::kRead);
  EXPECT_EQ(clock.Evict(), std::optional<PageId>(2));
}

// ---------- GCLOCK ----------

TEST(GClockTest, CounterGrantsMultipleSweepSurvivals) {
  GClockOptions options;
  options.initial_count = 1;
  options.reference_increment = 2;
  options.max_count = 8;
  GClockPolicy gclock(options);
  gclock.Admit(1, AccessType::kRead);
  gclock.Admit(2, AccessType::kRead);
  // Pump page 1's counter well above page 2's.
  for (int i = 0; i < 3; ++i) gclock.RecordAccess(1, AccessType::kRead);
  EXPECT_EQ(gclock.Evict(), std::optional<PageId>(2));
}

TEST(GClockTest, CounterIsCapped) {
  GClockOptions options;
  options.max_count = 2;
  GClockPolicy gclock(options);
  gclock.Admit(1, AccessType::kRead);
  for (int i = 0; i < 100; ++i) gclock.RecordAccess(1, AccessType::kRead);
  gclock.Admit(2, AccessType::kRead);
  // Page 1's counter is capped at 2, so it cannot survive indefinitely.
  EXPECT_EQ(gclock.Evict(), std::optional<PageId>(2));  // count 1 < cap.
  EXPECT_EQ(gclock.Evict(), std::optional<PageId>(1));
}

TEST(GClockTest, SetOnReferenceVariant) {
  GClockOptions options;
  options.increment_on_reference = false;
  options.reference_increment = 3;
  options.max_count = 8;
  GClockPolicy gclock(options);
  gclock.Admit(1, AccessType::kRead);
  for (int i = 0; i < 10; ++i) gclock.RecordAccess(1, AccessType::kRead);
  gclock.Admit(2, AccessType::kRead);
  gclock.RecordAccess(2, AccessType::kRead);
  // Page 1 saturates at 3 (set, not accumulate); page 2 also has 3; both
  // equal so the sweep order decides — just assert it terminates.
  EXPECT_TRUE(gclock.Evict().has_value());
}

// ---------- LRD ----------

TEST(LrdTest, EvictsLowestDensity) {
  LrdPolicy lrd;
  lrd.Admit(1, AccessType::kRead);  // clock 1, admitted at 0.
  lrd.Admit(2, AccessType::kRead);  // clock 2, admitted at 1.
  // Ten more references to page 1.
  for (int i = 0; i < 10; ++i) lrd.RecordAccess(1, AccessType::kRead);
  EXPECT_GT(lrd.Density(1), lrd.Density(2));
  EXPECT_EQ(lrd.Evict(), std::optional<PageId>(2));
}

TEST(LrdTest, AgingDecaysCounts) {
  LrdOptions options;
  options.aging_interval = 4;
  options.aging_divisor = 4;
  LrdPolicy lrd(options);
  EXPECT_EQ(lrd.Name(), "LRD-V2");
  lrd.Admit(1, AccessType::kRead);
  lrd.RecordAccess(1, AccessType::kRead);
  lrd.RecordAccess(1, AccessType::kRead);
  double before = lrd.Density(1);
  lrd.RecordAccess(1, AccessType::kRead);  // Tick 4: counts /= 4.
  double after = lrd.Density(1);
  EXPECT_LT(after, before);
}

TEST(LrdTest, V1NameAndDeterministicTieBreak) {
  LrdPolicy lrd;
  EXPECT_EQ(lrd.Name(), "LRD-V1");
  lrd.Admit(5, AccessType::kRead);
  lrd.Admit(9, AccessType::kRead);
  lrd.Admit(9000, AccessType::kRead);
  // Densities differ slightly by age; just check a victim emerges and the
  // policy drains fully.
  int evicted = 0;
  while (lrd.Evict().has_value()) ++evicted;
  EXPECT_EQ(evicted, 3);
}

// ---------- RANDOM ----------

TEST(RandomPolicyTest, EvictsOnlyResidentPages) {
  RandomPolicy random(7);
  for (PageId p = 0; p < 10; ++p) random.Admit(p, AccessType::kRead);
  // Removing a middle page swaps the last one into its slot.
  random.Remove(3);
  std::unordered_set<PageId> evicted;
  for (int i = 0; i < 9; ++i) {
    auto v = random.Evict();
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(*v, 3u);
    EXPECT_TRUE(evicted.insert(*v).second) << "double eviction";
  }
  EXPECT_EQ(random.Evict(), std::nullopt);
  EXPECT_EQ(random.ResidentCount(), 0u);
}

TEST(RandomPolicyTest, DeterministicUnderSeed) {
  RandomPolicy a(123);
  RandomPolicy b(123);
  for (PageId p = 0; p < 20; ++p) {
    a.Admit(p, AccessType::kRead);
    b.Admit(p, AccessType::kRead);
  }
  for (int i = 0; i < 20; ++i) ASSERT_EQ(a.Evict(), b.Evict());
}

// ---------- Parameterized interface contract ----------

using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

struct NamedFactory {
  std::string label;
  PolicyFactory make;
};

class PolicyContractTest : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(PolicyContractTest, EmptyPolicyHasNothingToEvict) {
  auto policy = GetParam().make();
  EXPECT_EQ(policy->Evict(), std::nullopt);
  EXPECT_EQ(policy->ResidentCount(), 0u);
}

TEST_P(PolicyContractTest, AdmitEvictRoundTrip) {
  auto policy = GetParam().make();
  policy->Admit(42, AccessType::kRead);
  EXPECT_TRUE(policy->IsResident(42));
  auto victim = policy->Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 42u);
  EXPECT_FALSE(policy->IsResident(42));
}

TEST_P(PolicyContractTest, EvictedPagesAreDistinctAndResident) {
  auto policy = GetParam().make();
  constexpr size_t kPages = 32;
  for (PageId p = 0; p < kPages; ++p) policy->Admit(p, AccessType::kRead);
  std::unordered_set<PageId> evicted;
  for (size_t i = 0; i < kPages; ++i) {
    auto v = policy->Evict();
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, kPages);
    ASSERT_TRUE(evicted.insert(*v).second);
  }
  EXPECT_EQ(policy->Evict(), std::nullopt);
}

TEST_P(PolicyContractTest, ForEachResidentEnumeratesExactly) {
  auto policy = GetParam().make();
  std::unordered_set<PageId> expected;
  for (PageId p = 0; p < 10; ++p) {
    policy->Admit(p, AccessType::kRead);
    expected.insert(p);
  }
  auto victim = policy->Evict();
  ASSERT_TRUE(victim.has_value());
  expected.erase(*victim);
  std::unordered_set<PageId> seen;
  policy->ForEachResident([&seen](PageId p) {
    EXPECT_TRUE(seen.insert(p).second) << "page visited twice";
  });
  EXPECT_EQ(seen, expected);
}

TEST_P(PolicyContractTest, RemoveForgetsResidency) {
  auto policy = GetParam().make();
  policy->Admit(1, AccessType::kRead);
  policy->Admit(2, AccessType::kRead);
  policy->Remove(2);
  EXPECT_FALSE(policy->IsResident(2));
  EXPECT_EQ(policy->ResidentCount(), 1u);
  auto v = policy->Evict();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);
}

TEST_P(PolicyContractTest, CountsSurviveMixedWorkload) {
  auto policy = GetParam().make();
  RandomEngine rng(55);
  std::unordered_set<PageId> resident;
  // The contract: Evict() returns a resident page exactly when
  // ResidentCount() > 0, and nullopt otherwise.
  auto evict = [&] {
    bool any_resident = policy->ResidentCount() > 0;
    std::optional<PageId> v = policy->Evict();
    EXPECT_EQ(v.has_value(), any_resident);
    if (v.has_value()) {
      EXPECT_EQ(resident.erase(*v), 1u) << "not resident";
    }
  };
  for (int step = 0; step < 2000; ++step) {
    PageId p = rng.NextBounded(24);
    if (resident.contains(p)) {
      policy->RecordAccess(p, AccessType::kRead);
    } else {
      if (resident.size() == 12) evict();
      policy->Admit(p, AccessType::kRead);
      resident.insert(p);
    }
    if (step % 37 == 0) {
      PageId q = *resident.begin();
      policy->Remove(q);
      resident.erase(q);
    }
    if (step % 400 == 0) {
      // Drain, then once more on the empty policy.
      while (!resident.empty()) evict();
      evict();
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
    ASSERT_EQ(policy->ResidentCount(), resident.size());
  }
}

// Pins live in the buffer pool, not in the policy: the pool nominates
// victims with EvictBatch, skips pinned nominees and Restores them. These
// two tests drive every policy through that round trip in an 8- and a
// 4-frame pool.

// NewPage's pin is kept on the pages collected in `pinned` and dropped on
// the rest.
PageId NewPageInto(BufferPool& pool, bool keep_pin,
                   std::vector<PageId>& pinned) {
  auto page = pool.NewPage();
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  if (!page.ok()) return kInvalidPageId;
  PageId p = (*page)->id();
  if (keep_pin) {
    pinned.push_back(p);
  } else {
    EXPECT_TRUE(pool.UnpinPage(p, false).ok());
  }
  return p;
}

void UnpinAll(BufferPool& pool, const std::vector<PageId>& pinned) {
  for (PageId p : pinned) EXPECT_TRUE(pool.UnpinPage(p, false).ok());
}

TEST_P(PolicyContractTest, PinningExcludesFromEviction) {
  SimDiskManager disk;
  BufferPool pool(8, &disk, GetParam().make());
  std::vector<PageId> pinned;
  std::vector<PageId> unpinned;
  for (int i = 0; i < 8; ++i) {
    PageId p = NewPageInto(pool, /*keep_pin=*/i % 2 == 0, pinned);
    if (i % 2 == 1) unpinned.push_back(p);
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  // Four misses, each kept pinned: each takes an unpinned page's frame.
  for (int i = 0; i < 4; ++i) NewPageInto(pool, /*keep_pin=*/true, pinned);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (PageId p : unpinned) EXPECT_FALSE(pool.IsResident(p)) << p;
  for (PageId p : pinned) EXPECT_TRUE(pool.IsResident(p)) << p;
  EXPECT_EQ(pool.stats().evictions, 4u);
  // Every frame is pinned now: the next miss is refused and changes
  // nothing, and the policy got every skipped nominee back.
  auto refused = pool.NewPage();
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.ResidentCount(), 8u);
  EXPECT_EQ(pool.policy().ResidentCount(), 8u);
  UnpinAll(pool, pinned);
}

TEST_P(PolicyContractTest, PinnedNomineesAreRestored) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, GetParam().make());
  std::vector<PageId> first;
  for (int i = 0; i < 3; ++i) NewPageInto(pool, /*keep_pin=*/true, first);
  std::vector<PageId> later;
  PageId loose = NewPageInto(pool, /*keep_pin=*/false, later);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // The only unpinned page is the only possible victim; whichever pinned
  // pages the policy nominated first go back to it.
  NewPageInto(pool, /*keep_pin=*/true, later);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_FALSE(pool.IsResident(loose));
  EXPECT_EQ(pool.policy().ResidentCount(), 4u);
  // Once unpinned, the restored pages are victims again: three more pinned
  // misses evict exactly them.
  UnpinAll(pool, first);
  for (int i = 0; i < 3; ++i) NewPageInto(pool, /*keep_pin=*/true, later);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (PageId p : first) EXPECT_FALSE(pool.IsResident(p)) << p;
  for (PageId p : later) EXPECT_TRUE(pool.IsResident(p)) << p;
  EXPECT_EQ(pool.stats().evictions, 4u);
  EXPECT_EQ(pool.policy().ResidentCount(), 4u);
  UnpinAll(pool, later);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyContractTest,
    ::testing::Values(
        NamedFactory{"LRU",
                     [] { return std::make_unique<LruPolicy>(); }},
        NamedFactory{"LRU2",
                     [] {
                       LruKOptions o;
                       o.k = 2;
                       return std::make_unique<LruKPolicy>(o);
                     }},
        NamedFactory{"LRU3",
                     [] {
                       LruKOptions o;
                       o.k = 3;
                       return std::make_unique<LruKPolicy>(o);
                     }},
        NamedFactory{"LRU2crp",
                     [] {
                       LruKOptions o;
                       o.k = 2;
                       o.correlated_reference_period = 5;
                       return std::make_unique<LruKPolicy>(o);
                     }},
        NamedFactory{"LFU", [] { return std::make_unique<LfuPolicy>(); }},
        NamedFactory{"FIFO", [] { return std::make_unique<FifoPolicy>(); }},
        NamedFactory{"CLOCK",
                     [] { return std::make_unique<ClockPolicy>(); }},
        NamedFactory{"GCLOCK",
                     [] { return std::make_unique<GClockPolicy>(); }},
        NamedFactory{"LRD", [] { return std::make_unique<LrdPolicy>(); }},
        NamedFactory{"MRU", [] { return std::make_unique<MruPolicy>(); }},
        NamedFactory{"RANDOM",
                     [] { return std::make_unique<RandomPolicy>(3); }},
        NamedFactory{"TwoQ",
                     [] {
                       TwoQOptions o;
                       o.capacity = 32;
                       return std::make_unique<TwoQPolicy>(o);
                     }},
        NamedFactory{"ARC",
                     [] { return std::make_unique<ArcPolicy>(32); }},
        NamedFactory{"A0",
                     [] {
                       return std::make_unique<A0Policy>(
                           std::vector<double>{0.5, 0.25, 0.125});
                     }},
        NamedFactory{"Adaptive",
                     [] {
                       PolicyContext context;
                       context.capacity = 32;
                       return MakePolicy(
                                  ParsePolicySpec("adaptive:lruk2+arc+2q")
                                      .ValueOrDie(),
                                  context)
                           .ValueOrDie();
                     }},
        NamedFactory{"DomainSep",
                     [] {
                       DomainSeparationOptions o;
                       o.classifier = [](PageId p) {
                         return static_cast<uint32_t>(p % 2);
                       };
                       o.domain_capacities = {16, 16};
                       return std::make_unique<DomainSeparationPolicy>(o);
                     }}),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return info.param.label;
    });

// ---------- Pins in the pool, per policy ----------
//
// A pinned nominee is skipped and restored: the pool evicts the policy's
// next choice. LRU-K's Restore also puts the skipped page back in its
// place in the policy's order; the policies that keep the default Restore
// re-admit it instead, so their tests check only the next choice.

// Three pages in a 3-frame pool, the first one kept pinned.
struct PinnedFirstPool {
  explicit PinnedFirstPool(std::unique_ptr<ReplacementPolicy> policy)
      : pool(3, &disk, std::move(policy)) {
    first = NewPageInto(pool, /*keep_pin=*/true, pinned);
    second = NewPageInto(pool, /*keep_pin=*/false, pinned);
    third = NewPageInto(pool, /*keep_pin=*/false, pinned);
  }

  // Misses on a fresh page (unpinned at once) and returns the page whose
  // frame it took.
  PageId MissAndVictim() {
    std::vector<PageId> before;
    for (PageId p : {first, second, third}) {
      if (pool.IsResident(p)) before.push_back(p);
    }
    std::vector<PageId> unused;
    NewPageInto(pool, /*keep_pin=*/false, unused);
    for (PageId p : before) {
      if (!pool.IsResident(p)) return p;
    }
    return kInvalidPageId;
  }

  SimDiskManager disk;
  BufferPool pool;
  std::vector<PageId> pinned;
  PageId first = kInvalidPageId;
  PageId second = kInvalidPageId;
  PageId third = kInvalidPageId;
};

TEST(PoolPinningTest, LruSkipsPinnedNomineeForTheNextLeastRecent) {
  PinnedFirstPool f(std::make_unique<LruPolicy>());
  EXPECT_EQ(f.MissAndVictim(), f.second);
  EXPECT_TRUE(f.pool.IsResident(f.first));
  ASSERT_TRUE(f.pool.UnpinPage(f.first, false).ok());
}

TEST(PoolPinningTest, FifoSkipsPinnedNomineeForTheNextArrival) {
  PinnedFirstPool f(std::make_unique<FifoPolicy>());
  EXPECT_EQ(f.MissAndVictim(), f.second);
  EXPECT_TRUE(f.pool.IsResident(f.first));
  ASSERT_TRUE(f.pool.UnpinPage(f.first, false).ok());
}

TEST(PoolPinningTest, LfuSkipsPinnedNomineeForTheNextLeastFrequent) {
  PinnedFirstPool f(std::make_unique<LfuPolicy>());
  // Two more references to the second page leave the third as the next
  // least frequent after the pinned first page.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(f.pool.FetchPage(f.second).ok());
    ASSERT_TRUE(f.pool.UnpinPage(f.second, false).ok());
  }
  EXPECT_EQ(f.MissAndVictim(), f.third);
  EXPECT_TRUE(f.pool.IsResident(f.first));
  ASSERT_TRUE(f.pool.UnpinPage(f.first, false).ok());
}

class LruKPoolPinningTest : public ::testing::TestWithParam<VictimIndex> {};

TEST_P(LruKPoolPinningTest, SkipsPinnedNomineeAndKeepsItsPosition) {
  LruKOptions o;
  o.k = 2;
  o.victim_index = GetParam();
  PinnedFirstPool f(std::make_unique<LruKPolicy>(o));
  // A second reference gives the third page a finite backward 2-distance;
  // the first two still have an infinite one, the first the oldest.
  ASSERT_TRUE(f.pool.FetchPage(f.third).ok());
  ASSERT_TRUE(f.pool.UnpinPage(f.third, false).ok());
  EXPECT_EQ(f.MissAndVictim(), f.second);
  ASSERT_TRUE(f.pool.UnpinPage(f.first, false).ok());
  EXPECT_EQ(f.MissAndVictim(), f.first);
}

INSTANTIATE_TEST_SUITE_P(AllVictimIndices, LruKPoolPinningTest,
                         ::testing::Values(VictimIndex::kLazyHeap,
                                           VictimIndex::kLinear),
                         [](const ::testing::TestParamInfo<VictimIndex>& i) {
                           return i.param == VictimIndex::kLazyHeap
                                      ? std::string("LazyHeap")
                                      : std::string("Linear");
                         });

}  // namespace
}  // namespace lruk
