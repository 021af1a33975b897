#include "storage/sim_disk_manager.h"

#include <cstring>
#include <mutex>

namespace lruk {

SimDiskManager::SimDiskManager(SimDiskOptions options) : options_(options) {}

Status SimDiskManager::ReadPage(PageId p, char* out) {
  Stripe& stripe = StripeOf(p);
  std::lock_guard<std::mutex> guard(stripe.latch);
  auto it = stripe.pages.find(p);
  if (it == stripe.pages.end()) {
    ++stripe.stats.read_failures;
    return Status::NotFound("read of unallocated page " + std::to_string(p));
  }
  if (it->second.data == nullptr) {
    std::memset(out, 0, kPageSize);  // Allocated but never written: zeros.
  } else {
    std::memcpy(out, it->second.data.get(), kPageSize);
  }
  ++stripe.stats.reads;
  return Status::Ok();
}

Status SimDiskManager::WritePage(PageId p, const char* data) {
  Stripe& stripe = StripeOf(p);
  std::lock_guard<std::mutex> guard(stripe.latch);
  auto it = stripe.pages.find(p);
  if (it == stripe.pages.end()) {
    ++stripe.stats.write_failures;
    return Status::NotFound("write of unallocated page " + std::to_string(p));
  }
  if (it->second.data == nullptr) {
    it->second.data = std::make_unique<char[]>(kPageSize);
  }
  std::memcpy(it->second.data.get(), data, kPageSize);
  ++stripe.stats.writes;
  return Status::Ok();
}

Result<PageId> SimDiskManager::AllocatePage() {
  std::lock_guard<std::mutex> alloc_guard(alloc_latch_);
  PageId p;
  if (!free_list_.empty()) {
    p = free_list_.back();
    free_list_.pop_back();
  } else {
    p = next_page_id_++;
  }
  Stripe& stripe = StripeOf(p);
  std::lock_guard<std::mutex> guard(stripe.latch);
  stripe.pages.emplace(p, Slot{});
  ++stripe.stats.allocations;
  ++allocated_;
  return p;
}

Status SimDiskManager::DeallocatePage(PageId p) {
  std::lock_guard<std::mutex> alloc_guard(alloc_latch_);
  Stripe& stripe = StripeOf(p);
  std::lock_guard<std::mutex> guard(stripe.latch);
  auto it = stripe.pages.find(p);
  if (it == stripe.pages.end()) {
    return Status::NotFound("deallocation of unallocated page " +
                            std::to_string(p));
  }
  stripe.pages.erase(it);
  free_list_.push_back(p);
  ++stripe.stats.deallocations;
  --allocated_;
  return Status::Ok();
}

uint64_t SimDiskManager::NumAllocatedPages() const {
  std::lock_guard<std::mutex> guard(alloc_latch_);
  return allocated_;
}

IoStats SimDiskManager::stats() const {
  IoStats total;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> guard(stripe.latch);
    total.reads += stripe.stats.reads;
    total.writes += stripe.stats.writes;
    total.allocations += stripe.stats.allocations;
    total.deallocations += stripe.stats.deallocations;
    total.read_failures += stripe.stats.read_failures;
    total.write_failures += stripe.stats.write_failures;
  }
  total.simulated_micros =
      static_cast<double>(total.reads) * options_.read_micros +
      static_cast<double>(total.writes) * options_.write_micros;
  return total;
}

void SimDiskManager::ResetStats() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> guard(stripe.latch);
    stripe.stats = IoStats{};
  }
}

}  // namespace lruk
