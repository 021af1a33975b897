#include "core/random_policy.h"

namespace lruk {

RandomPolicy::RandomPolicy(uint64_t seed) : rng_(seed) {}

void RandomPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(entries_.contains(p), "RecordAccess on a non-resident page");
}

void RandomPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  pages_.push_back(p);
  entries_.emplace(p, pages_.size() - 1);
}

void RandomPolicy::RemoveSlot(size_t slot) {
  PageId moved = pages_.back();
  pages_[slot] = moved;
  pages_.pop_back();
  if (slot < pages_.size()) entries_.at(moved) = slot;
}

std::optional<PageId> RandomPolicy::Evict() {
  if (pages_.empty()) return std::nullopt;
  size_t slot = static_cast<size_t>(rng_.NextBounded(pages_.size()));
  PageId victim = pages_[slot];
  RemoveSlot(slot);
  entries_.erase(victim);
  return victim;
}

void RandomPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  RemoveSlot(it->second);
  entries_.erase(it);
}

void RandomPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
