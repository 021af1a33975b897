#include "core/clock_policy.h"

namespace lruk {

void ClockPolicy::AdvanceHand() {
  if (ring_.empty()) {
    hand_ = ring_.end();
    return;
  }
  ++hand_;
  if (hand_ == ring_.end()) hand_ = ring_.begin();
}

void ClockPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  it->second->referenced = true;
}

void ClockPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  // Insert just behind the hand so the new page is swept last.
  auto pos = (hand_ == ring_.end())
                 ? ring_.insert(ring_.end(), Slot{p, /*referenced=*/true})
                 : ring_.insert(hand_, Slot{p, /*referenced=*/true});
  if (hand_ == ring_.end()) hand_ = pos;
  entries_.emplace(p, pos);
}

std::optional<PageId> ClockPolicy::Evict() {
  if (ring_.empty()) return std::nullopt;
  // At most one full sweep clears every reference bit, so the loop ends
  // within two.
  LRUK_ASSERT(hand_ != ring_.end(), "clock hand detached from the ring");
  while (hand_->referenced) {
    hand_->referenced = false;
    AdvanceHand();
  }
  PageId victim = hand_->page;
  auto dead = hand_;
  AdvanceHand();
  if (hand_ == dead) hand_ = ring_.end();  // Last element removed.
  ring_.erase(dead);
  entries_.erase(victim);
  return victim;
}

void ClockPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  if (hand_ == it->second) AdvanceHand();
  if (hand_ == it->second) hand_ = ring_.end();  // Sole element.
  ring_.erase(it->second);
  entries_.erase(it);
}


void ClockPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
