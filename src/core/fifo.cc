#include "core/fifo.h"

namespace lruk {

void FifoPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  // FIFO ignores re-references; only validate the precondition.
  LRUK_ASSERT(entries_.contains(p), "RecordAccess on a non-resident page");
}

void FifoPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  arrival_.push_front(p);
  entries_.emplace(p, arrival_.begin());
}

std::optional<PageId> FifoPolicy::Evict() {
  if (arrival_.empty()) return std::nullopt;
  PageId victim = arrival_.back();
  arrival_.pop_back();
  entries_.erase(victim);
  return victim;
}

void FifoPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  arrival_.erase(it->second);
  entries_.erase(it);
}

void FifoPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
