#include "core/lru.h"

namespace lruk {

void LruPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  recency_.splice(recency_.begin(), recency_, it->second);
}

void LruPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  recency_.push_front(p);
  entries_.emplace(p, recency_.begin());
}

std::optional<PageId> LruPolicy::Evict() {
  if (recency_.empty()) return std::nullopt;
  PageId victim = recency_.back();
  recency_.pop_back();
  entries_.erase(victim);
  return victim;
}

void LruPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  recency_.erase(it->second);
  entries_.erase(it);
}

void LruPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
