#include "core/mru.h"

namespace lruk {

void MruPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  recency_.splice(recency_.begin(), recency_, it->second);
}

void MruPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  recency_.push_front(p);
  entries_.emplace(p, recency_.begin());
}

std::optional<PageId> MruPolicy::Evict() {
  if (recency_.empty()) return std::nullopt;
  PageId victim = recency_.front();
  recency_.pop_front();
  entries_.erase(victim);
  return victim;
}

void MruPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  recency_.erase(it->second);
  entries_.erase(it);
}

void MruPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
