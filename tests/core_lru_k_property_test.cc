// Property tests for LRU-K, parameterized over K, the Correlated Reference
// Period, the Retained Information Period, and the random seed:
//
//  1. Both victim-index structures (the lazy min-heap and the paper's
//     O(n) linear scan — LruKOptions::victim_index) are behaviourally
//     identical on arbitrary operation sequences, including removal,
//     post-eviction re-admission, fallback eviction (every page inside its
//     CRP) and mid-script history purges.
//  2. LRU-K with K = 1 and CRP = 0 is exactly classical LRU.
//  3. The policy is deterministic from its inputs.
//  4. Internal counters agree with a model of the resident set.

#include <optional>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/lru.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace lruk {
namespace {

constexpr size_t kCapacity = 16;
constexpr PageId kPages = 48;
constexpr int kSteps = 4000;

// Drives N policies with an identical randomized reference/remove/evict
// script, asserting identical observable behavior at every step.
void RunLockstepMany(const std::vector<ReplacementPolicy*>& policies,
                     uint64_t seed) {
  ASSERT_FALSE(policies.empty());
  RandomEngine rng(seed);
  std::unordered_set<PageId> resident;

  // Evicts from every policy; all victims must agree. Returns the common
  // victim (nullopt only when nothing is resident).
  auto evict_all = [&](int step) -> std::optional<PageId> {
    std::optional<PageId> first = policies[0]->Evict();
    for (size_t i = 1; i < policies.size(); ++i) {
      std::optional<PageId> other = policies[i]->Evict();
      EXPECT_EQ(first, other)
          << "victims diverged at step " << step << " (policy 0 vs " << i
          << ")";
    }
    return first;
  };

  for (int step = 0; step < kSteps; ++step) {
    double action = rng.NextDouble();
    if (action < 0.85) {
      // A page reference.
      PageId p = rng.NextBounded(kPages);
      if (resident.contains(p)) {
        for (ReplacementPolicy* policy : policies) {
          policy->RecordAccess(p, AccessType::kRead);
        }
      } else {
        if (resident.size() == kCapacity) {
          auto victim = evict_all(step);
          if (::testing::Test::HasFailure()) return;
          ASSERT_TRUE(victim.has_value()) << "full buffer, no victim";
          resident.erase(*victim);
        }
        for (ReplacementPolicy* policy : policies) {
          policy->Admit(p, AccessType::kRead);
        }
        resident.insert(p);
      }
    } else if (action < 0.925) {
      // Remove a random resident page (leaves a dead victim-heap entry).
      if (resident.empty()) continue;
      std::vector<PageId> pool(resident.begin(), resident.end());
      PageId p = pool[rng.NextBounded(pool.size())];
      for (ReplacementPolicy* policy : policies) policy->Remove(p);
      resident.erase(p);
    } else {
      // Spontaneous eviction.
      auto victim = evict_all(step);
      if (::testing::Test::HasFailure()) return;
      ASSERT_EQ(victim.has_value(), !resident.empty());
      if (victim.has_value()) resident.erase(*victim);
    }

    for (ReplacementPolicy* policy : policies) {
      ASSERT_EQ(policy->ResidentCount(), resident.size());
    }
    for (PageId p = 0; p < kPages; ++p) {
      for (ReplacementPolicy* policy : policies) {
        ASSERT_EQ(policy->IsResident(p), resident.contains(p));
      }
    }
  }
}

void RunLockstep(ReplacementPolicy& a, ReplacementPolicy& b, uint64_t seed) {
  RunLockstepMany({&a, &b}, seed);
}

// Lockstep between the two victim-index structures: the lazy heap must
// pick byte-identical victims to the paper's linear scan on the same
// randomized script (references, removals, spontaneous evictions — so
// evicted pages are re-admitted with surviving history). The RIP axis
// sweeps infinite retention plus finite periods straddling the reuse
// distance of the kPages/kCapacity script, and a short demon period makes
// a finite RIP purge mid-script (the default 4096 would never fire inside
// kSteps references). The CRP axis closes correlated periods of several
// lengths, which re-keys the heap; its last value is longer than the
// whole script, which forces every eviction down the fallback path (no
// page is ever eligible).
class LruKIndexEquivalence
    : public ::testing::TestWithParam<
          std::tuple<int, Timestamp, Timestamp, uint64_t>> {};

TEST_P(LruKIndexEquivalence, LazyHeapMatchesLinearScan) {
  auto [k, crp, rip, seed] = GetParam();
  LruKOptions options;
  options.k = k;
  options.correlated_reference_period = crp;
  options.retained_information_period = rip;
  options.purge_interval = 64;

  LruKOptions heap_opts = options;
  heap_opts.victim_index = VictimIndex::kLazyHeap;
  LruKOptions linear_opts = options;
  linear_opts.victim_index = VictimIndex::kLinear;

  LruKPolicy heap(heap_opts);
  LruKPolicy linear(linear_opts);
  ASSERT_EQ(heap.victim_index(), VictimIndex::kLazyHeap);
  ASSERT_EQ(linear.victim_index(), VictimIndex::kLinear);

  RunLockstep(heap, linear, seed);

  // The structures must agree on the side effects too, not just victims.
  EXPECT_EQ(heap.fallback_evictions(), linear.fallback_evictions());
  EXPECT_EQ(heap.HistorySize(), linear.HistorySize());
  if (crp > static_cast<Timestamp>(kSteps)) {
    // Sanity: the fallback-heavy axis actually exercised the fallback.
    EXPECT_GT(heap.fallback_evictions(), 0u);
  }
  // The lazy heap may hold stale duplicates, but it must stay bounded by
  // pages-with-history, not grow with the operation count.
  EXPECT_LE(heap.VictimHeapSize(), heap.HistorySize() + kCapacity);
}

INSTANTIATE_TEST_SUITE_P(
    KCrpRipSeedGrid, LruKIndexEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values<Timestamp>(0, 3, 20, 5000),
                       ::testing::Values<Timestamp>(kInfinitePeriod, 48, 400),
                       ::testing::Values<uint64_t>(1, 7, 1234)));

class LruK1VsLru : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruK1VsLru, K1WithZeroCrpIsClassicalLru) {
  LruKOptions options;
  options.k = 1;
  options.correlated_reference_period = 0;
  LruKPolicy lru_k(options);
  LruPolicy lru;
  RunLockstep(lru_k, lru, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruK1VsLru,
                         ::testing::Values<uint64_t>(2, 3, 5, 8, 13, 21));

class LruKDeterminism
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(LruKDeterminism, SameScriptSameBehavior) {
  auto [k, seed] = GetParam();
  LruKOptions options;
  options.k = k;
  LruKPolicy a(options);
  LruKPolicy b(options);
  RunLockstep(a, b, seed);  // Lockstep with itself proves determinism.
}

INSTANTIATE_TEST_SUITE_P(
    KSeedGrid, LruKDeterminism,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values<uint64_t>(99, 100)));

// On a pure reference stream (no removes), the eviction victim under
// K=2 always has the maximal backward-2-distance among resident pages —
// checked against brute force over DebugBlock.
TEST(LruKVictimProperty, VictimMaximizesBackwardKDistance) {
  LruKOptions options;
  options.k = 2;
  LruKPolicy policy(options);
  RandomEngine rng(4242);
  std::unordered_set<PageId> resident;

  for (int step = 0; step < 3000; ++step) {
    PageId p = rng.NextBounded(kPages);
    if (resident.contains(p)) {
      policy.RecordAccess(p, AccessType::kRead);
      continue;
    }
    if (resident.size() == kCapacity) {
      // Compute the expected victim by brute force *before* evicting:
      // smallest (HIST(p,K), HIST(p,1)) pair.
      std::optional<std::tuple<Timestamp, Timestamp, PageId>> best;
      for (PageId q : resident) {
        const HistoryBlock* block = policy.DebugBlock(q);
        ASSERT_NE(block, nullptr);
        auto key = std::make_tuple(block->HistK(), block->Hist1(), q);
        if (!best || key < *best) best = key;
      }
      auto victim = policy.Evict();
      ASSERT_TRUE(victim.has_value());
      ASSERT_EQ(*victim, std::get<2>(*best)) << "step " << step;
      resident.erase(*victim);
    }
    policy.Admit(p, AccessType::kRead);
    resident.insert(p);
  }
}

// With CRP = 0 and an infinite RIP, LRU-K's eviction priorities depend
// only on the reference string, never on the buffer size, so it is a
// stack algorithm: hit counts are monotone non-decreasing in capacity
// (the inclusion property). This is also why the B(1)/B(2) inversion in
// the table benches is well-defined.
TEST(LruKStackProperty, HitsMonotoneInCapacity) {
  RandomEngine rng(777);
  std::vector<PageId> trace;
  for (int i = 0; i < 20000; ++i) {
    // Mildly skewed: square of a uniform draw concentrates on low ids.
    uint64_t u = rng.NextBounded(64);
    trace.push_back(u * u / 64);
  }

  for (int k : {1, 2, 3}) {
    uint64_t prev_hits = 0;
    for (size_t capacity : {4u, 8u, 16u, 32u, 64u}) {
      LruKOptions options;
      options.k = k;
      LruKPolicy policy(options);
      uint64_t hits = 0;
      for (PageId p : trace) {
        if (policy.IsResident(p)) {
          policy.RecordAccess(p, AccessType::kRead);
          ++hits;
        } else {
          if (policy.ResidentCount() == capacity) {
            ASSERT_TRUE(policy.Evict().has_value());
          }
          policy.Admit(p, AccessType::kRead);
        }
      }
      ASSERT_GE(hits, prev_hits)
          << "K=" << k << " capacity=" << capacity;
      prev_hits = hits;
    }
  }
}

}  // namespace
}  // namespace lruk
