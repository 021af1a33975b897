// The latch-free (optimistic) hit path every pool runs, deterministic
// half (the threaded half lives in optimistic_concurrency_test.cc).
//
// Coverage layers:
//  * PageTable units — insert/find/erase round-trips against a reference
//    map under heavy id reuse (backward-shift clusters), version growth,
//    LockBucket forcing optimistic readers to fall back, UnlockErased
//    removing the mapping, OptimisticFind/Validate agreeing with the
//    latched surface when nothing is mutating.
//  * Replay-oracle battery — single-threaded, both pools reproduce a bare
//    LRU-2 policy replaying the same 20k-op mixed workload
//    async_io_test.cc uses (differential_harness.h): same surviving
//    victim sequence, clock, hits and misses, same residency, and disk
//    images equal to a last-writer model — with the async stack (inline
//    dispatcher + flusher) off and on, and with a capacity-1 ring. An
//    explicit batch_capacity 0 is bumped to 64, byte-identical to 64.
//  * Zero-mutex hit — a warm optimistic fetch/unpin pair acquires the pool
//    latch ZERO times, asserted via the latch_acquires counter, including
//    with default-constructed options on both pool shapes.
//  * Readahead interaction — readahead and the latch-free hit path
//    compose on both pool shapes (the voting detector's Observe is
//    wait-free): prefetches are issued, nothing is dropped, and the disk
//    images are the last writer's; a non-triggering warm hit stays at zero
//    latches.
//  * StatsSnapshot — the lock-free snapshot equals the draining stats()
//    when the pool is quiescent.
//  * Error paths — UnpinPage/DeletePage report NotFound and
//    InvalidArgument, pinned pages are never victims (pin counts as
//    ground truth), ResourceExhausted when every frame is pinned, and id
//    reuse after delete works.

#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/page_table.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;
using difftest::DiffScenarioConfig;
using difftest::DiffScenarioResult;
using difftest::ExpectMatchesReplayOracle;
using difftest::ExpectPoolStatsEq;
using difftest::ExpectScenarioEq;
using difftest::OracleResult;
using difftest::ReplayOnPolicy;
using difftest::RunDiffScenario;

// ---------------------------------------------------------------------------
// PageTable units.

TEST(OptimisticPageTableTest, InsertFindEraseRoundTrip) {
  PageTable table(16);
  EXPECT_GE(table.bucket_count(), 32u);  // Load factor <= 1/2.
  EXPECT_EQ(table.size(), 0u);

  for (PageId p = 0; p < 16; ++p) table.Insert(p, static_cast<FrameId>(p * 7));
  EXPECT_EQ(table.size(), 16u);
  for (PageId p = 0; p < 16; ++p) {
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame));
    EXPECT_EQ(frame, static_cast<FrameId>(p * 7));
    EXPECT_TRUE(table.contains(p));
  }
  FrameId frame = kInvalidFrameId;
  EXPECT_FALSE(table.Find(99, &frame));
  EXPECT_FALSE(table.contains(99));

  for (PageId p = 0; p < 16; p += 2) table.Erase(p);
  EXPECT_EQ(table.size(), 8u);
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(table.contains(p), p % 2 == 1) << "page " << p;
  }
}

// Backward-shift deletion against a reference map: a small table under
// heavy id reuse keeps probe clusters dense, so erases constantly relocate
// entries. Every surviving mapping must stay findable — by the latched
// probe AND by the optimistic one (single-threaded, a stable table must
// always yield consistent snapshots that validate).
TEST(OptimisticPageTableTest, BackwardShiftChurnMatchesReferenceMap) {
  constexpr size_t kCapacity = 12;
  PageTable table(kCapacity);
  std::unordered_map<PageId, FrameId> reference;
  RandomEngine rng(/*seed=*/20260809);

  for (int step = 0; step < 4000; ++step) {
    bool insert = reference.size() < kCapacity &&
                  (reference.empty() || rng.NextBernoulli(0.5));
    if (insert) {
      PageId p = rng.NextBounded(64);  // Narrow id range: reuse + clustering.
      if (reference.contains(p)) continue;
      FrameId frame = static_cast<FrameId>(rng.NextBounded(kCapacity));
      table.Insert(p, frame);
      reference[p] = frame;
    } else {
      size_t skip = rng.NextBounded(reference.size());
      auto it = reference.begin();
      std::advance(it, skip);
      table.Erase(it->first);
      reference.erase(it);
    }
    ASSERT_EQ(table.size(), reference.size());
    for (const auto& [p, frame] : reference) {
      FrameId found = kInvalidFrameId;
      ASSERT_TRUE(table.Find(p, &found)) << "page " << p;
      ASSERT_EQ(found, frame);
      PageTable::Snapshot snap;
      ASSERT_TRUE(table.OptimisticFind(p, &snap)) << "page " << p;
      ASSERT_EQ(snap.frame, frame);
      ASSERT_TRUE(table.Validate(snap));
      ASSERT_EQ(snap.version % 2, 0u);  // Stable buckets are always even.
    }
  }
}

TEST(OptimisticPageTableTest, LockBucketForcesOptimisticFallback) {
  PageTable table(8);
  table.Insert(5, 3);
  PageTable::Snapshot before;
  ASSERT_TRUE(table.OptimisticFind(5, &before));
  EXPECT_EQ(before.frame, 3u);

  size_t bucket = table.LockBucket(5);
  EXPECT_EQ(bucket, before.bucket);
  // Locked (odd) bucket: no optimistic reader may claim a hit, and a pin
  // taken against the old snapshot must fail validation.
  PageTable::Snapshot during;
  EXPECT_FALSE(table.OptimisticFind(5, &during));
  EXPECT_FALSE(table.Validate(before));

  table.UnlockUnchanged(bucket);
  // Mapping intact, but the version moved on: old snapshots stay dead.
  FrameId frame = kInvalidFrameId;
  ASSERT_TRUE(table.Find(5, &frame));
  EXPECT_EQ(frame, 3u);
  EXPECT_FALSE(table.Validate(before));
  PageTable::Snapshot after;
  ASSERT_TRUE(table.OptimisticFind(5, &after));
  EXPECT_GT(after.version, before.version);  // Versions only grow.
  EXPECT_TRUE(table.Validate(after));
}

TEST(OptimisticPageTableTest, UnlockErasedRemovesTheMapping) {
  PageTable table(8);
  for (PageId p = 0; p < 8; ++p) table.Insert(p, static_cast<FrameId>(p));
  PageTable::Snapshot snap;
  ASSERT_TRUE(table.OptimisticFind(2, &snap));

  size_t bucket = table.LockBucket(2);
  table.UnlockErased(bucket);
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.size(), 7u);
  EXPECT_FALSE(table.Validate(snap));
  // The backward shift left every other mapping findable.
  for (PageId p = 0; p < 8; ++p) {
    if (p == 2) continue;
    FrameId frame = kInvalidFrameId;
    ASSERT_TRUE(table.Find(p, &frame)) << "page " << p;
    EXPECT_EQ(frame, static_cast<FrameId>(p));
  }
}

// ---------------------------------------------------------------------------
// Replay-oracle battery: the pool against a bare policy replaying its
// logged references (differential_harness.h). The "MatchesLatchedPath"
// names predate the replay; no latched hit path exists to compare with.

// The latch-free path ran on every warm hit and never misfired:
// single-threaded, nothing invalidates a probe mid-flight, so every
// fallback is an honest probe miss (the page was simply absent) — never a
// version conflict or a displacement-bound overflow.
void ExpectCleanFastPath(const BufferPoolStats& stats) {
  EXPECT_EQ(stats.optimistic_hits, stats.hits);
  EXPECT_EQ(stats.optimistic_fallbacks, stats.misses);
  EXPECT_EQ(stats.fallback_probe_miss, stats.misses);
  EXPECT_EQ(stats.fallback_version_conflict, 0u);
  EXPECT_EQ(stats.fallback_resize, 0u);
  EXPECT_EQ(stats.pin_cas_retries, 0u);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathPlainPool) {
  DiffScenarioConfig config;
  DiffScenarioResult run = RunDiffScenario(config);
  ExpectMatchesReplayOracle(config, run);
  ExpectCleanFastPath(run.stats);
  EXPECT_GT(run.stats.evictions, 0u);
  // Warm hits take no latch, so acquisitions stay well below one per op.
  EXPECT_LT(run.stats.latch_acquires, run.stats.hits);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathShardedPool) {
  DiffScenarioConfig config{.sharded = true};
  DiffScenarioResult run = RunDiffScenario(config);
  ExpectMatchesReplayOracle(config, run);
  ExpectCleanFastPath(run.stats);
}

TEST(OptimisticDifferentialTest, MatchesLatchedPathUnderAsyncStack) {
  // Inline dispatcher + background flusher: the flusher pass
  // (pop-until-batch-unpinned + bucket-locked write-back) peeks victims
  // and restores them exactly, so the replay still matches.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioConfig config{.sharded = sharded, .async_stack = true};
    DiffScenarioResult run = RunDiffScenario(config);
    ExpectMatchesReplayOracle(config, run);
    ExpectCleanFastPath(run.stats);
    EXPECT_GT(run.stats.background_cleans, 0u);
  }
}

TEST(OptimisticDifferentialTest, DefaultBatchAutoBumpMatchesExplicit) {
  // batch_capacity set to 0 is bumped to 64 (a latch-free hit can only
  // publish through the AccessBuffer).
  DiffScenarioResult defaulted = RunDiffScenario({.batch_capacity = 0});
  DiffScenarioResult explicit_batch = RunDiffScenario({.batch_capacity = 64});
  ExpectScenarioEq(defaulted, explicit_batch);

  SimDiskManager disk;
  BufferPoolOptions options;
  options.batch_capacity = 0;
  BufferPool pool(8, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}),
                  options);
  EXPECT_EQ(pool.options().batch_capacity, 64u);
}

TEST(OptimisticDifferentialTest, ReadaheadComposesAndStaysIdentical) {
  // Readahead and the latch-free hit path COMPOSE on both pool shapes: the
  // voting detector's Observe is wait-free, so warm hits stay latch-free
  // while the detector watches the fetch stream. Prefetch admissions are
  // not in the reference string, so there is no policy replay to match;
  // the counters and the last-writer disk images still must hold.
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "plain");
    DiffScenarioConfig config{.sharded = sharded, .readahead = true};
    DiffScenarioResult run = RunDiffScenario(config);
    OracleResult oracle = ReplayOnPolicy(config, run);
    EXPECT_EQ(run.images, oracle.images);
    EXPECT_EQ(run.stats.hits + run.stats.misses,
              oracle.hits + oracle.misses);
    EXPECT_GT(run.stats.optimistic_hits, 0u);
    EXPECT_GT(run.stats.prefetch_issued, 0u);
    EXPECT_EQ(run.stats.access_drops, 0u);
  }
}

TEST(OptimisticDifferentialTest, TinyRingRefusalPathStaysIdentical) {
  // batch_capacity 1: nearly every publish lands on the ring-full refusal
  // path (drain under the latch + apply directly). The FIFO contract must
  // hold across the refusals — the replay matches again — and
  // single-threaded nothing is ever dropped, even with zero capacity
  // headroom.
  DiffScenarioConfig config{.batch_capacity = 1};
  DiffScenarioResult run = RunDiffScenario(config);
  ExpectMatchesReplayOracle(config, run);
  EXPECT_GT(run.stats.optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// The zero-mutex hit: the acceptance criterion of the optimistic path.

TEST(OptimisticHitPathTest, WarmHitAcquiresNoLatch) {
  constexpr size_t kPages = 64;
  SimDiskManager disk;
  BufferPoolOptions options;
  // Room for every record this loop publishes, so no drain is triggered.
  options.batch_capacity = 256;
  BufferPool pool(128, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, kPages);

  // Everything resident (capacity > kPages): from here on, every fetch is
  // a warm hit and every unpin balances a latch-free pin.
  BufferPoolStats before = pool.StatsSnapshot();
  for (PageId p : pages) {
    auto page = pool.FetchPage(p, AccessType::kRead);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->id(), p);
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();

  // ZERO pool-latch acquisitions across 64 fetch/unpin pairs.
  EXPECT_EQ(after.latch_acquires, before.latch_acquires);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kPages);
  EXPECT_EQ(after.hits - before.hits, kPages);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);

  // The buffered references land in the policy at the next drain point.
  (void)pool.stats();
  EXPECT_EQ(pool.policy().ResidentCount(), kPages);
}

TEST(OptimisticHitPathTest, WarmHitStaysLatchFreeWithReadaheadOn) {
  // The detector no longer forces warm hits onto the latched path: its
  // Observe is wait-free, so a hit that triggers nothing touches no
  // mutex. A single hot page re-referenced in a loop (diff 0 never votes)
  // is the detector's cheapest case — and must stay at zero latches.
  SimDiskManager disk;
  BufferPoolOptions options;
  options.batch_capacity = 256;
  options.io_dispatcher = true;  // Inline workers.
  options.readahead = {.enabled = true, .window = 4, .min_run = 3};
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}), options);
  std::vector<PageId> pages = AllocateDb(pool, 8);

  constexpr uint64_t kLoops = 64;
  BufferPoolStats before = pool.StatsSnapshot();
  for (uint64_t i = 0; i < kLoops; ++i) {
    auto page = pool.FetchPage(pages[0], AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  }
  BufferPoolStats after = pool.StatsSnapshot();

  EXPECT_EQ(after.latch_acquires, before.latch_acquires);
  EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, kLoops);
  EXPECT_EQ(after.prefetch_issued, before.prefetch_issued);
  EXPECT_EQ(after.optimistic_fallbacks, before.optimistic_fallbacks);
}

TEST(OptimisticHitPathTest, DefaultOptionsServeWarmHitsWithoutTheLatch) {
  // The latch-free path is the default: BufferPoolOptions{} alone serves a
  // warm fetch + unpin with zero latch acquisitions, on both pool shapes.
  SimDiskManager disk;
  auto lru2 = [](size_t, size_t) {
    return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
  };
  BufferPool plain(16, &disk, lru2(0, 16), BufferPoolOptions{});
  ShardedBufferPool sharded(16, /*num_shards=*/4, &disk, lru2,
                            BufferPoolOptions{});
  for (PoolInterface* pool : {static_cast<PoolInterface*>(&plain),
                              static_cast<PoolInterface*>(&sharded)}) {
    std::vector<PageId> pages = AllocateDb(*pool, 4);
    BufferPoolStats before = pool->StatsSnapshot();
    auto page = pool->FetchPage(pages[0]);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool->UnpinPage(pages[0], false).ok());
    BufferPoolStats after = pool->StatsSnapshot();
    EXPECT_EQ(after.latch_acquires, before.latch_acquires);
    EXPECT_EQ(after.optimistic_hits - before.optimistic_hits, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
  }
}

TEST(OptimisticHitPathTest, StatsSnapshotMatchesStatsWhenQuiescent) {
  SimDiskManager disk;
  BufferPool pool(16, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 48);
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(/*seed=*/11);
  for (int i = 0; i < 2000; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    bool write = rng.NextBernoulli(0.25);
    auto page =
        pool.FetchPage(p, write ? AccessType::kWrite : AccessType::kRead);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, write).ok());
  }

  // Quiescent pool: the lock-free snapshot and the draining stats() agree
  // on every counter. stats() itself takes the latch once, which is the
  // only drift the proxy counter may show.
  BufferPoolStats snap = pool.StatsSnapshot();
  BufferPoolStats full = pool.stats();
  ExpectPoolStatsEq(snap, full);
  EXPECT_EQ(snap.optimistic_hits, full.optimistic_hits);
  EXPECT_EQ(snap.optimistic_fallbacks, full.optimistic_fallbacks);
  EXPECT_EQ(snap.pin_cas_retries, full.pin_cas_retries);
  EXPECT_EQ(full.latch_acquires, snap.latch_acquires + 1);
  EXPECT_GT(snap.optimistic_hits, 0u);
}

// ---------------------------------------------------------------------------
// Error paths and the pin protocol.

TEST(OptimisticHitPathTest, UnpinErrorsMatchLatchedCodes) {
  SimDiskManager disk;
  BufferPool pool(4, &disk, std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 2);
  // Non-resident page: the probe misses and the latched path reports
  // NotFound.
  EXPECT_EQ(pool.UnpinPage(999, false).code(), StatusCode::kNotFound);
  // Resident but unpinned: the probe sees pin == 0 and defers to the
  // latched path for the authoritative InvalidArgument.
  EXPECT_EQ(pool.UnpinPage(pages[0], false).code(),
            StatusCode::kInvalidArgument);
  // Balanced unpin still works afterwards.
  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(pool.UnpinPage(pages[0], false).ok());
}

TEST(OptimisticHitPathTest, PinCountsAreEvictionGroundTruth) {
  // The policy never sees pins — AcquireFrame trusts the atomic pin
  // counts. Pinned pages must survive eviction pressure, and a pool
  // with every frame pinned is exhausted.
  SimDiskManager disk;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 8);

  std::vector<Page*> pinned;
  for (size_t i = 0; i < 4; ++i) {
    auto page = pool.FetchPage(pages[i]);
    ASSERT_TRUE(page.ok());
    pinned.push_back(*page);
  }
  // Every frame pinned: the next distinct fetch finds no victim.
  auto exhausted = pool.FetchPage(pages[7]);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  // The pinned pages were untouched by the failed eviction hunt.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.IsResident(pages[i]));
    EXPECT_EQ(pinned[i]->pin_count(), 1);
  }
  // Releasing one pin re-enables eviction.
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());
  auto fetched = pool.FetchPage(pages[7]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[7], false).ok());
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(pool.UnpinPage(pages[i], false).ok());
  }
}

TEST(OptimisticHitPathTest, DeleteRefusesPinnedAndReusesIds) {
  SimDiskManager disk;
  BufferPool pool(4, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  std::vector<PageId> pages = AllocateDb(pool, 4);

  auto page = pool.FetchPage(pages[0]);
  ASSERT_TRUE(page.ok());
  // Pinned: the bucket-locked delete sees pin > 0 and refuses.
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.IsResident(pages[0]));
  ASSERT_TRUE(pool.UnpinPage(pages[0], false).ok());

  // Unpinned: the delete lands, the frame returns to the free list, and
  // the allocator hands the id out again.
  ASSERT_TRUE(pool.DeletePage(pages[0]).ok());
  EXPECT_FALSE(pool.IsResident(pages[0]));
  EXPECT_EQ(pool.DeletePage(pages[0]).code(), StatusCode::kNotFound);
  auto fresh = pool.NewPage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->id(), pages[0]);
  EXPECT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
}

}  // namespace
}  // namespace lruk
