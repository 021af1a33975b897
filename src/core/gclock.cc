#include "core/gclock.h"

#include <algorithm>

namespace lruk {

GClockPolicy::GClockPolicy(GClockOptions options) : options_(options) {}

void GClockPolicy::AdvanceHand() {
  if (ring_.empty()) {
    hand_ = ring_.end();
    return;
  }
  ++hand_;
  if (hand_ == ring_.end()) hand_ = ring_.begin();
}

void GClockPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  uint32_t& count = it->second->count;
  if (options_.increment_on_reference) {
    count = std::min(count + options_.reference_increment, options_.max_count);
  } else {
    count = std::min(options_.reference_increment, options_.max_count);
  }
}

void GClockPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  auto pos =
      (hand_ == ring_.end())
          ? ring_.insert(ring_.end(), Slot{p, options_.initial_count})
          : ring_.insert(hand_, Slot{p, options_.initial_count});
  if (hand_ == ring_.end()) hand_ = pos;
  entries_.emplace(p, pos);
}

std::optional<PageId> GClockPolicy::Evict() {
  if (ring_.empty()) return std::nullopt;
  // Each full sweep decrements every counter at least once, so at most
  // max_count + 1 sweeps reach a zero-count victim.
  LRUK_ASSERT(hand_ != ring_.end(), "gclock hand detached from the ring");
  while (hand_->count > 0) {
    --hand_->count;
    AdvanceHand();
  }
  PageId victim = hand_->page;
  auto dead = hand_;
  AdvanceHand();
  if (hand_ == dead) hand_ = ring_.end();
  ring_.erase(dead);
  entries_.erase(victim);
  return victim;
}

void GClockPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  if (hand_ == it->second) AdvanceHand();
  if (hand_ == it->second) hand_ = ring_.end();
  ring_.erase(it->second);
  entries_.erase(it);
}


void GClockPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
