// Concurrency tests for SimDiskManager's striped page store: whole-image
// reads and writes under real parallelism, exact IoStats accounting summed
// across stripes, and an exact allocator under concurrent allocate and
// deallocate. Named *Concurrency* so the sanitizer CI jobs run them.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

namespace lruk {
namespace {

constexpr int kThreads = 4;
constexpr size_t kWords = kPageSize / sizeof(uint64_t);

// A page image: the stamp repeated in every word.
void FillImage(uint64_t stamp, char* page) {
  for (size_t w = 0; w < kWords; ++w) {
    std::memcpy(page + w * sizeof(uint64_t), &stamp, sizeof(uint64_t));
  }
}

// The stamp of a whole image, or kTorn if its words differ.
constexpr uint64_t kTorn = ~uint64_t{0};
uint64_t ImageStamp(const char* page) {
  uint64_t first;
  std::memcpy(&first, page, sizeof(uint64_t));
  for (size_t w = 1; w < kWords; ++w) {
    uint64_t word;
    std::memcpy(&word, page + w * sizeof(uint64_t), sizeof(uint64_t));
    if (word != first) return kTorn;
  }
  return first;
}

uint64_t Stamp(int thread, uint64_t seq) {
  return (static_cast<uint64_t>(thread + 1) << 40) | seq;
}

TEST(SimDiskConcurrencyTest, ReadsSeeWholeImagesAndStatsAreExact) {
  SimDiskOptions options;
  options.read_micros = 3.0;
  options.write_micros = 7.0;
  SimDiskManager disk(options);

  constexpr int kOwnPages = 8;
  constexpr int kSharedPages = 8;
  constexpr int kOps = 4000;
  std::vector<PageId> shared;
  for (int i = 0; i < kSharedPages; ++i) {
    shared.push_back(*disk.AllocatePage());
  }
  std::vector<std::vector<PageId>> own(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOwnPages; ++i) {
      own[t].push_back(*disk.AllocatePage());
    }
  }
  const PageId unallocated = 1'000'003;  // Never allocated.
  const uint64_t allocations = kSharedPages + kThreads * kOwnPages;

  struct Issued {
    uint64_t reads = 0, writes = 0, read_failures = 0, write_failures = 0;
    uint64_t torn = 0, foreign = 0, stale_own = 0;
  };
  std::vector<Issued> issued(kThreads);
  std::atomic<bool> start{false};
  std::atomic<bool> stop_monitor{false};

  auto worker = [&](int t) {
    RandomEngine rng(100 + t);
    std::vector<char> page(kPageSize);
    std::vector<uint64_t> last_written(kOwnPages, 0);
    Issued& mine = issued[t];
    while (!start.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kOps; ++i) {
      uint64_t dice = rng.NextBounded(100);
      if (dice < 2) {
        // Organic failures on a page that was never allocated.
        if (dice == 0) {
          EXPECT_FALSE(disk.ReadPage(unallocated, page.data()).ok());
          ++mine.read_failures;
        } else {
          FillImage(Stamp(t, i), page.data());
          EXPECT_FALSE(disk.WritePage(unallocated, page.data()).ok());
          ++mine.write_failures;
        }
        continue;
      }
      bool use_own = rng.NextBounded(2) == 0;
      size_t slot = rng.NextBounded(use_own ? kOwnPages : kSharedPages);
      PageId p = use_own ? own[t][slot] : shared[slot];
      if (dice < 50) {
        uint64_t stamp = Stamp(t, i + 1);
        FillImage(stamp, page.data());
        ASSERT_TRUE(disk.WritePage(p, page.data()).ok());
        ++mine.writes;
        if (use_own) last_written[slot] = stamp;
      } else {
        ASSERT_TRUE(disk.ReadPage(p, page.data()).ok());
        ++mine.reads;
        uint64_t stamp = ImageStamp(page.data());
        if (stamp == kTorn) {
          ++mine.torn;
        } else if (stamp != 0 && ((stamp >> 40) == 0 ||
                                  (stamp >> 40) > kThreads)) {
          ++mine.foreign;  // Not an image any thread wrote.
        } else if (use_own && stamp != last_written[slot]) {
          ++mine.stale_own;  // Own pages read back the last own write.
        }
      }
    }
  };

  // A monitor sums the stripes while the workers run: the counts it sees
  // never go backwards.
  std::thread monitor([&] {
    uint64_t last_reads = 0, last_writes = 0;
    while (!stop_monitor.load(std::memory_order_acquire)) {
      IoStats s = disk.stats();
      EXPECT_GE(s.reads, last_reads);
      EXPECT_GE(s.writes, last_writes);
      last_reads = s.reads;
      last_writes = s.writes;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  stop_monitor.store(true, std::memory_order_release);
  monitor.join();

  Issued total;
  for (const Issued& i : issued) {
    total.reads += i.reads;
    total.writes += i.writes;
    total.read_failures += i.read_failures;
    total.write_failures += i.write_failures;
    total.torn += i.torn;
    total.foreign += i.foreign;
    total.stale_own += i.stale_own;
  }
  EXPECT_EQ(total.torn, 0u);
  EXPECT_EQ(total.foreign, 0u);
  EXPECT_EQ(total.stale_own, 0u);

  IoStats s = disk.stats();
  EXPECT_EQ(s.reads, total.reads);
  EXPECT_EQ(s.writes, total.writes);
  EXPECT_EQ(s.read_failures, total.read_failures);
  EXPECT_EQ(s.write_failures, total.write_failures);
  EXPECT_EQ(s.allocations, allocations);
  EXPECT_EQ(s.deallocations, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_DOUBLE_EQ(s.simulated_micros,
                   static_cast<double>(total.reads) * 3.0 +
                       static_cast<double>(total.writes) * 7.0);
  EXPECT_EQ(disk.NumAllocatedPages(), allocations);

  disk.ResetStats();
  IoStats zero = disk.stats();
  EXPECT_EQ(zero.reads + zero.writes + zero.allocations + zero.read_failures +
                zero.write_failures,
            0u);
  EXPECT_DOUBLE_EQ(zero.simulated_micros, 0.0);
}

TEST(SimDiskConcurrencyTest, AllocatorIsExactAndReusesFreedIds) {
  SimDiskManager disk(SimDiskOptions{});
  constexpr int kKeepers = 16;  // Pages each thread keeps to the end.
  constexpr int kChurn = 1000;  // Allocate-check-free rounds per thread.

  std::vector<std::vector<PageId>> kept(kThreads);
  std::vector<uint64_t> dirty_reuse(kThreads, 0);
  std::vector<PageId> max_id(kThreads, 0);
  std::atomic<bool> start{false};
  auto worker = [&](int t) {
    std::vector<char> page(kPageSize);
    while (!start.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kKeepers; ++i) {
      Result<PageId> p = disk.AllocatePage();
      ASSERT_TRUE(p.ok());
      kept[t].push_back(*p);
      max_id[t] = std::max(max_id[t], *p);
    }
    for (int i = 0; i < kChurn; ++i) {
      Result<PageId> p = disk.AllocatePage();
      ASSERT_TRUE(p.ok());
      max_id[t] = std::max(max_id[t], *p);
      // A reused id starts as a never-written page: zeros, not the image
      // its previous owner wrote.
      ASSERT_TRUE(disk.ReadPage(*p, page.data()).ok());
      if (ImageStamp(page.data()) != 0) ++dirty_reuse[t];
      FillImage(Stamp(t, i + 1), page.data());
      ASSERT_TRUE(disk.WritePage(*p, page.data()).ok());
      ASSERT_TRUE(disk.DeallocatePage(*p).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dirty_reuse[t], 0u) << "thread " << t;
  }
  std::set<PageId> live;
  for (const auto& ids : kept) live.insert(ids.begin(), ids.end());
  EXPECT_EQ(live.size(), static_cast<size_t>(kThreads * kKeepers));
  const uint64_t keepers = static_cast<uint64_t>(kThreads) * kKeepers;
  EXPECT_EQ(disk.NumAllocatedPages(), keepers);

  const uint64_t rounds = static_cast<uint64_t>(kThreads) * kChurn;
  IoStats s = disk.stats();
  EXPECT_EQ(s.allocations, keepers + rounds);
  EXPECT_EQ(s.deallocations, rounds);
  EXPECT_EQ(s.reads, rounds);
  EXPECT_EQ(s.writes, rounds);
  EXPECT_EQ(s.read_failures, 0u);
  EXPECT_EQ(s.write_failures, 0u);

  // Fresh ids are minted only when the free list is empty, i.e. when
  // every minted id is live; at most kKeepers + 1 pages per thread were
  // ever live at once, so every id handed out stays below that bound.
  const PageId bound = static_cast<PageId>(kThreads * (kKeepers + 1));
  for (int t = 0; t < kThreads; ++t) EXPECT_LT(max_id[t], bound);

  // Freed ids come back before fresh ones; a second free of an id is
  // refused and not counted.
  std::vector<PageId> freed(kept[0].begin(), kept[0].begin() + 4);
  for (PageId p : freed) ASSERT_TRUE(disk.DeallocatePage(p).ok());
  EXPECT_FALSE(disk.DeallocatePage(freed[0]).ok());
  EXPECT_EQ(disk.stats().deallocations, rounds + freed.size());
  std::vector<PageId> again;
  for (size_t i = 0; i < freed.size(); ++i) {
    again.push_back(*disk.AllocatePage());
  }
  std::sort(freed.begin(), freed.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, freed);
  EXPECT_EQ(disk.NumAllocatedPages(), keepers);
}

}  // namespace
}  // namespace lruk
