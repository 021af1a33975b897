// In-memory simulated disk with a constant-service-time cost model.
//
// Thread safety: the page store is striped. Page p lives in stripe
// p % kStripes, and ReadPage/WritePage lock only that stripe's latch, so
// the shards of a ShardedBufferPool read and write different pages in
// parallel. AllocatePage/DeallocatePage also take a small allocator latch
// (the free list, the next fresh id and the allocated-page count). Lock
// order: allocator latch, then stripe latch; a stripe holder never takes
// the allocator latch. The IoStats counters live in the stripes, under
// their latches, so stats() and ResetStats() are safe at any time:
// stats() sums the stripes and derives simulated_micros from the counts.

#ifndef LRUK_STORAGE_SIM_DISK_MANAGER_H_
#define LRUK_STORAGE_SIM_DISK_MANAGER_H_

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"

namespace lruk {

struct SimDiskOptions {
  // Service time charged per operation, modeling a late-80s disk arm
  // (~15 accesses/second ~ 66 ms would be period-faithful; defaults use a
  // modern-ish 10 ms so example output reads naturally).
  double read_micros = 10000.0;
  double write_micros = 10000.0;
};

class SimDiskManager final : public DiskManager {
 public:
  explicit SimDiskManager(SimDiskOptions options = {});

  Status ReadPage(PageId p, char* out) override;
  Status WritePage(PageId p, const char* data) override;
  Result<PageId> AllocatePage() override;
  Status DeallocatePage(PageId p) override;
  uint64_t NumAllocatedPages() const override;

  IoStats stats() const override;
  void ResetStats() override;

 private:
  // A power of two, so the owning stripe is p & (kStripes - 1). Ids are
  // handed out densely, so consecutive pages land on different stripes.
  static constexpr size_t kStripes = 64;

  struct Slot {
    std::unique_ptr<char[]> data;  // Lazily materialized on first write.
  };

  // One cache line apart so neighbouring stripes' latches do not share one.
  struct alignas(64) Stripe {
    std::mutex latch;
    std::unordered_map<PageId, Slot> pages;
    // Counts of the operations on this stripe's pages; simulated_micros
    // stays 0 here and is derived in stats().
    IoStats stats;
  };

  Stripe& StripeOf(PageId p) { return stripes_[p & (kStripes - 1)]; }

  SimDiskOptions options_;
  // Allocator state; guarded by alloc_latch_.
  mutable std::mutex alloc_latch_;
  PageId next_page_id_ = 0;
  std::vector<PageId> free_list_;
  uint64_t allocated_ = 0;
  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace lruk

#endif  // LRUK_STORAGE_SIM_DISK_MANAGER_H_
