#include "core/lfu.h"

namespace lruk {

LfuPolicy::LfuPolicy(LfuOptions options) : options_(options) {}

LfuPolicy::HeapKey LfuPolicy::KeyFor(PageId p, uint64_t last_tick) const {
  return HeapKey{ReferenceCount(p), last_tick, p};
}

uint64_t LfuPolicy::ReferenceCount(PageId p) const {
  auto it = counts_.find(p);
  return (it == counts_.end()) ? 0 : it->second;
}

void LfuPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = resident_.find(p);
  LRUK_ASSERT(it != resident_.end(), "RecordAccess on a non-resident page");
  ++tick_;
  heap_.erase(KeyFor(p, it->second));
  ++counts_[p];
  it->second = tick_;
  heap_.insert(KeyFor(p, it->second));
}

void LfuPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!resident_.contains(p), "Admit on an already-resident page");
  ++tick_;
  ++counts_[p];
  resident_.emplace(p, tick_);
  heap_.insert(KeyFor(p, tick_));
}

std::optional<PageId> LfuPolicy::Evict() {
  if (heap_.empty()) return std::nullopt;
  HeapKey key = *heap_.begin();
  heap_.erase(heap_.begin());
  resident_.erase(key.page);
  if (options_.forget_on_eviction) counts_.erase(key.page);
  return key.page;
}

void LfuPolicy::Remove(PageId p) {
  auto it = resident_.find(p);
  LRUK_ASSERT(it != resident_.end(), "Remove on a non-resident page");
  heap_.erase(KeyFor(p, it->second));
  resident_.erase(it);
  if (options_.forget_on_eviction) counts_.erase(p);
}

void LfuPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : resident_) visit(kv.first);
}

}  // namespace lruk
