// Shared 20k-op differential harness.
//
// Three suites (async_io_test.cc, optimistic_pool_test.cc,
// batched_access_test.cc) grew byte-for-byte copies of the same
// scaffolding: the stats comparators, the AllocateDb warm-up, a
// victim-recording policy wrapper, and the mixed deterministic workload
// with its RunScenario driver. This header is the single home for all of
// it; adaptive_policy_test.cc builds its fixed-expert differential on the
// same pieces (DiffScenarioConfig::make_policy swaps the policy under
// record).
//
// Two kinds of check run on it. A differential compares two pool
// configurations byte for byte (ExpectScenarioEq). The replay oracle
// (ExpectMatchesReplayOracle) compares one pool run against the paper's
// definition itself: the run logs every fetch, NewPage and DeletePage,
// and the log is replayed on a fresh, bare policy with RunSimulation's
// per-reference rule, so the pool must reproduce the policy's own
// eviction sequence, clock, hits and misses, and its disk images must
// match a last-writer model of the workload's stamps.
//
// Everything is inline and header-only: each test binary stays standalone,
// and the compiler sees one definition per TU.

#ifndef LRUK_TESTS_DIFFERENTIAL_HARNESS_H_
#define LRUK_TESTS_DIFFERENTIAL_HARNESS_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace difftest {

inline void ExpectPoolStatsEq(const BufferPoolStats& a,
                              const BufferPoolStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_writebacks, b.dirty_writebacks);
  EXPECT_EQ(a.read_failures, b.read_failures);
  EXPECT_EQ(a.write_failures, b.write_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.coalesced_reads, b.coalesced_reads);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.prefetch_used, b.prefetch_used);
  EXPECT_EQ(a.prefetch_dropped, b.prefetch_dropped);
  EXPECT_EQ(a.background_cleans, b.background_cleans);
}

inline void ExpectIoStatsEq(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.deallocations, b.deallocations);
  EXPECT_EQ(a.read_failures, b.read_failures);
  EXPECT_EQ(a.write_failures, b.write_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.simulated_micros, b.simulated_micros);
}

// One pool operation as the replacement policy sees it: a fetch (a
// reference), a NewPage (an admission of a fresh id, as a write) or a
// DeletePage (a Remove). `stamp` is the value a write fetch copies into
// the page's first bytes; `shard` is the owning shard (0 for a plain
// pool), filled in after the run.
struct PoolOp {
  enum class Kind { kFetch, kNew, kDelete };
  Kind kind = Kind::kFetch;
  PageId page = kInvalidPageId;
  AccessType type = AccessType::kRead;
  int stamp = 0;
  size_t shard = 0;
};

inline std::vector<PageId> AllocateDb(PoolInterface& pool, uint64_t n,
                                      std::vector<PoolOp>* log = nullptr) {
  std::vector<PageId> pages;
  for (uint64_t i = 0; i < n; ++i) {
    auto page = pool.NewPage();
    EXPECT_TRUE(page.ok());
    pages.push_back((*page)->id());
    if (log != nullptr) {
      log->push_back({PoolOp::Kind::kNew, (*page)->id(), AccessType::kWrite});
    }
    EXPECT_TRUE(pool.UnpinPage((*page)->id(), true).ok());
  }
  return pages;
}

// Forwarding wrapper recording the surviving eviction sequence around ANY
// inner policy (a Restore pops its eviction — eviction skips, flusher
// peeks, and write-behind rollbacks cancel out exactly, so what remains is
// the true victim order). Unused EvictBatch nominees come back in reverse
// nomination order, but a batch's CONSUMED nominee stays evicted
// mid-sequence — so Restore erases the most recent occurrence instead of
// asserting strict LIFO. The replay oracle records through it too.
class RecordingPolicy final : public ReplacementPolicy {
 public:
  explicit RecordingPolicy(std::unique_ptr<ReplacementPolicy> inner)
      : inner_(std::move(inner)) {}

  void SetReferencingProcess(uint32_t process) override {
    inner_->SetReferencingProcess(process);
  }
  void PrepareAdmit(PageId p) override { inner_->PrepareAdmit(p); }
  void RecordAccess(PageId p, AccessType type) override {
    inner_->RecordAccess(p, type);
  }
  void RecordAccessBatch(const AccessRecord* records, size_t n) override {
    inner_->RecordAccessBatch(records, n);
  }
  void Admit(PageId p, AccessType type) override { inner_->Admit(p, type); }
  std::optional<PageId> Evict() override {
    auto victim = inner_->Evict();
    if (victim.has_value()) evictions_.push_back(*victim);
    return victim;
  }
  size_t EvictBatch(size_t k, std::vector<PageId>* out) override {
    size_t n = inner_->EvictBatch(k, out);
    evictions_.insert(evictions_.end(), out->begin(), out->end());
    return n;
  }
  void SettleEvictions() override { inner_->SettleEvictions(); }
  void Restore(PageId p) override {
    auto it = std::find(evictions_.rbegin(), evictions_.rend(), p);
    ASSERT_TRUE(it != evictions_.rend());
    evictions_.erase(std::next(it).base());
    inner_->Restore(p);
  }
  void Remove(PageId p) override { inner_->Remove(p); }
  size_t ResidentCount() const override { return inner_->ResidentCount(); }
  bool IsResident(PageId p) const override { return inner_->IsResident(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override {
    inner_->ForEachResident(visit);
  }
  std::string_view Name() const override { return inner_->Name(); }
  MetaPolicyStats GetMetaStats() const override {
    return inner_->GetMetaStats();
  }

  const std::vector<PageId>& evictions() const { return evictions_; }
  ReplacementPolicy& inner() { return *inner_; }
  const ReplacementPolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
  std::vector<PageId> evictions_;
};

constexpr uint64_t kDiffDbPages = 96;
constexpr size_t kDiffCapacity = 24;
constexpr int kDiffOps = 20000;

// A mixed deterministic workload: skewed fetches, 25% writes, periodic
// FlushPage, periodic DeletePage + NewPage (id churn through the
// allocator's free list). Exercises every pool entry point the async
// stack, the latch-free hit path, and batched publishing touch. Reports
// the number of delete/new cycles through *delete_cycles (for closed-form
// policy-clock assertions: clock == hits + misses + initial admissions +
// delete cycles), and appends every fetch/new/delete to *log when given.
inline void DriveMixedWorkload(PoolInterface& pool,
                               std::vector<PageId>& pages,
                               int ops = kDiffOps,
                               int* delete_cycles = nullptr,
                               std::vector<PoolOp>* log = nullptr) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(/*seed=*/20260809);
  int cycles = 0;
  for (int i = 0; i < ops; ++i) {
    size_t idx = dist.Sample(rng) - 1;
    PageId p = pages[idx];
    bool write = rng.NextBernoulli(0.25);
    AccessType type = write ? AccessType::kWrite : AccessType::kRead;
    auto page = pool.FetchPage(p, type);
    ASSERT_TRUE(page.ok()) << "op " << i;
    if (write) {
      std::memcpy((*page)->Data(), &i, sizeof(i));
    }
    if (log != nullptr) log->push_back({PoolOp::Kind::kFetch, p, type, i});
    ASSERT_TRUE(pool.UnpinPage(p, write).ok()) << "op " << i;
    if (i % 1009 == 0) {
      ASSERT_TRUE(pool.FlushPage(p).ok());
    }
    if (i % 501 == 250) {
      ASSERT_TRUE(pool.DeletePage(p).ok()) << "op " << i;
      auto fresh = pool.NewPage();
      ASSERT_TRUE(fresh.ok());
      pages[idx] = (*fresh)->id();
      if (log != nullptr) {
        log->push_back({PoolOp::Kind::kDelete, p});
        log->push_back({PoolOp::Kind::kNew, pages[idx], AccessType::kWrite});
      }
      ASSERT_TRUE(pool.UnpinPage((*fresh)->id(), true).ok());
      ++cycles;
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  if (delete_cycles != nullptr) *delete_cycles = cycles;
}

// Builds the policy under record for one pool (shard_index 0 for the
// plain pool). Defaults to the repo's canonical LRU-2.
using MakePolicyFn = std::function<std::unique_ptr<ReplacementPolicy>(
    size_t shard_index, size_t capacity)>;

struct DiffScenarioConfig {
  bool sharded = false;
  size_t num_shards = 4;
  size_t capacity = kDiffCapacity;
  uint64_t db_pages = kDiffDbPages;
  int ops = kDiffOps;
  size_t batch_capacity = 64;  // 0 is bumped to 64 by the pool.
  bool dispatcher = false;  // Inline unless io_workers > 0.
  size_t io_workers = 0;
  bool async_stack = false;  // Inline dispatcher + background flusher.
  bool readahead = false;    // Implies the dispatcher (inline).
  MakePolicyFn make_policy{};  // Null: LruKOptions{.k = 2}.
};

struct DiffScenarioResult {
  BufferPoolStats stats;
  IoStats io;
  // Surviving eviction sequence per policy instance (one for the plain
  // pool, one per shard for the sharded pool).
  std::vector<std::vector<PageId>> evictions;
  // The workload's final pages; `residency` and `images` are parallel.
  std::vector<PageId> pages;
  std::vector<bool> residency;
  std::vector<std::string> images;
  // Inner policy logical clocks, parallel to `evictions` (0 when the
  // inner policy is not LRU-K).
  std::vector<Timestamp> clocks;
  int delete_cycles = 0;
  // The replay oracle's inputs: every fetch/new/delete in issue order,
  // and each policy instance's capacity (parallel to `evictions`).
  std::vector<PoolOp> ops;
  std::vector<size_t> capacities;
};

inline MakePolicyFn PolicyMaker(const DiffScenarioConfig& config) {
  if (config.make_policy) return config.make_policy;
  return [](size_t, size_t) {
    return std::make_unique<LruKPolicy>(LruKOptions{.k = 2});
  };
}

inline DiffScenarioResult RunDiffScenario(const DiffScenarioConfig& config) {
  SimDiskManager disk;
  BufferPoolOptions options;
  options.batch_capacity = config.batch_capacity;
  options.io_dispatcher = config.dispatcher;
  options.io_workers = config.io_workers;
  if (config.async_stack) {
    options.io_dispatcher = true;  // Inline: io_workers = 0.
    options.flusher = true;
    options.flusher_every_ops = 32;
    options.flusher_batch = 4;
  }
  if (config.readahead) {
    options.io_dispatcher = true;
    options.readahead = {.enabled = true, .window = 4, .min_run = 3};
  }
  MakePolicyFn make_policy = PolicyMaker(config);

  DiffScenarioResult result;
  std::vector<PageId>& pages = result.pages;
  std::vector<RecordingPolicy*> recorders;
  auto drive = [&](PoolInterface& pool) {
    pages = AllocateDb(pool, config.db_pages, &result.ops);
    DriveMixedWorkload(pool, pages, config.ops, &result.delete_cycles,
                       &result.ops);
  };
  auto finish = [&](PoolInterface& pool) {
    result.stats = pool.stats();
    for (RecordingPolicy* r : recorders) {
      result.evictions.push_back(r->evictions());
      const auto* lruk = dynamic_cast<const LruKPolicy*>(&r->inner());
      result.clocks.push_back(lruk != nullptr ? lruk->CurrentTime() : 0);
    }
    for (PageId p : pages) result.residency.push_back(pool.IsResident(p));
  };
  if (!config.sharded) {
    auto policy = std::make_unique<RecordingPolicy>(
        make_policy(0, config.capacity));
    recorders.push_back(policy.get());
    BufferPool pool(config.capacity, &disk, std::move(policy), options);
    drive(pool);
    finish(pool);
    result.capacities.push_back(config.capacity);
  } else {
    recorders.resize(config.num_shards, nullptr);
    ShardedBufferPool pool(
        config.capacity, config.num_shards, &disk,
        [&](size_t shard, size_t shard_capacity) {
          auto policy = std::make_unique<RecordingPolicy>(
              make_policy(shard, shard_capacity));
          recorders[shard] = policy.get();
          return policy;
        },
        options);
    drive(pool);
    finish(pool);
    for (PoolOp& op : result.ops) op.shard = pool.ShardOf(op.page);
    for (size_t i = 0; i < pool.shard_count(); ++i) {
      result.capacities.push_back(pool.shard(i).capacity());
    }
  }
  result.io = disk.stats();
  char buf[kPageSize];
  for (PageId p : pages) {
    EXPECT_TRUE(disk.ReadPage(p, buf).ok());
    result.images.emplace_back(buf, kPageSize);
  }
  return result;
}

inline void ExpectScenarioEq(const DiffScenarioResult& a,
                             const DiffScenarioResult& b) {
  ExpectPoolStatsEq(a.stats, b.stats);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.residency, b.residency);
  EXPECT_EQ(a.images, b.images);
  EXPECT_EQ(a.clocks, b.clocks);
  // IoStats modulo the verification reads RunDiffScenario itself issued
  // (same count on both sides, so full equality still holds
  // field-for-field).
  ExpectIoStatsEq(a.io, b.io);
}

// What a bare policy does with a run's logged operations.
struct OracleResult {
  std::vector<std::vector<PageId>> evictions;  // Per policy instance.
  std::vector<Timestamp> clocks;               // 0 when not LRU-K.
  uint64_t hits = 0;
  uint64_t misses = 0;
  std::vector<bool> residency;     // Parallel to the run's `pages`.
  std::vector<std::string> images;  // Last-writer model, same order.
};

// Replays `run.ops` on fresh policies built as `config` builds them, one
// per shard at that shard's capacity. Each fetch or NewPage follows
// RunSimulation's per-reference rule (resident: RecordAccess; else
// PrepareAdmit, Evict when full, Admit); a delete Removes. Alongside, a
// last-writer model tracks each page's image: zeroed by NewPage, stamped
// by every write fetch, dropped by DeletePage.
inline OracleResult ReplayOnPolicy(const DiffScenarioConfig& config,
                                   const DiffScenarioResult& run) {
  MakePolicyFn make_policy = PolicyMaker(config);
  std::vector<std::unique_ptr<RecordingPolicy>> policies;
  for (size_t i = 0; i < run.capacities.size(); ++i) {
    policies.push_back(std::make_unique<RecordingPolicy>(
        make_policy(i, run.capacities[i])));
  }
  OracleResult oracle;
  std::unordered_map<PageId, std::string> model;
  for (const PoolOp& op : run.ops) {
    RecordingPolicy& policy = *policies[op.shard];
    if (op.kind == PoolOp::Kind::kDelete) {
      if (policy.IsResident(op.page)) policy.Remove(op.page);
      model.erase(op.page);
      continue;
    }
    if (op.kind == PoolOp::Kind::kNew) {
      model[op.page] = std::string(kPageSize, '\0');
    } else if (op.type == AccessType::kWrite) {
      std::memcpy(model[op.page].data(), &op.stamp, sizeof(op.stamp));
    }
    const bool resident = policy.IsResident(op.page);
    if (op.kind == PoolOp::Kind::kFetch) {
      ++(resident ? oracle.hits : oracle.misses);
    }
    if (resident) {
      policy.RecordAccess(op.page, op.type);
      continue;
    }
    policy.PrepareAdmit(op.page);
    if (policy.ResidentCount() == run.capacities[op.shard]) {
      EXPECT_TRUE(policy.Evict().has_value());
    }
    policy.Admit(op.page, op.type);
  }
  for (const auto& policy : policies) {
    oracle.evictions.push_back(policy->evictions());
    const auto* lruk = dynamic_cast<const LruKPolicy*>(&policy->inner());
    oracle.clocks.push_back(lruk != nullptr ? lruk->CurrentTime() : 0);
  }
  // Every final page was logged (NewPage at least), so the log knows its
  // shard.
  std::unordered_map<PageId, size_t> shard_of;
  for (const PoolOp& op : run.ops) shard_of[op.page] = op.shard;
  for (PageId p : run.pages) {
    oracle.residency.push_back(policies[shard_of[p]]->IsResident(p));
    oracle.images.push_back(model[p]);
  }
  return oracle;
}

// The pool run must be the bare policy's replay: same surviving eviction
// sequence per shard, same LRU-K clock, same hits/misses/evictions, same
// final residency; its disk images must be the last writer's; and every
// miss must be exactly one physical read. Holds single-threaded for any
// pool configuration whose admissions are all demand references — not
// with readahead, whose prefetch admissions are not in the reference
// string.
inline void ExpectMatchesReplayOracle(const DiffScenarioConfig& config,
                                      const DiffScenarioResult& run) {
  OracleResult oracle = ReplayOnPolicy(config, run);
  EXPECT_EQ(run.evictions, oracle.evictions);
  EXPECT_EQ(run.clocks, oracle.clocks);
  EXPECT_EQ(run.stats.hits, oracle.hits);
  EXPECT_EQ(run.stats.misses, oracle.misses);
  size_t evicted = 0;
  for (const auto& shard : oracle.evictions) evicted += shard.size();
  EXPECT_EQ(run.stats.evictions, evicted);
  EXPECT_EQ(run.residency, oracle.residency);
  EXPECT_EQ(run.images, oracle.images);
  EXPECT_EQ(run.io.reads, run.stats.misses);
  EXPECT_EQ(run.stats.access_drops, 0u);
}

}  // namespace difftest
}  // namespace lruk

#endif  // LRUK_TESTS_DIFFERENTIAL_HARNESS_H_
