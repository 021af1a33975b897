#include "core/two_q.h"

#include <algorithm>
#include <cmath>

namespace lruk {

TwoQPolicy::TwoQPolicy(TwoQOptions options) : options_(options) {
  LRUK_ASSERT(options_.capacity > 0, "2Q requires a positive capacity");
  kin_ = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options_.kin_fraction *
                                          static_cast<double>(options_.capacity))));
  kout_ = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options_.kout_fraction *
                                          static_cast<double>(options_.capacity))));
}

void TwoQPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  if (it->second.queue == Queue::kAm) {
    am_.splice(am_.begin(), am_, it->second.pos);
  }
  // A hit in A1in deliberately does not move the page (2Q's correlated-
  // reference defense: a quick second touch is not evidence of hotness).
}

void TwoQPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  auto ghost = a1out_index_.find(p);
  if (ghost != a1out_index_.end()) {
    // Second (uncorrelated) reference within the ghost window: hot page.
    a1out_.erase(ghost->second);
    a1out_index_.erase(ghost);
    am_.push_front(p);
    entries_.emplace(p, Entry{Queue::kAm, am_.begin()});
  } else {
    a1in_.push_front(p);
    entries_.emplace(p, Entry{Queue::kA1in, a1in_.begin()});
  }
}

PageId TwoQPolicy::EvictFromTail(std::list<PageId>& list) {
  PageId victim = list.back();
  list.pop_back();
  entries_.erase(victim);
  return victim;
}

void TwoQPolicy::PushGhost(PageId p) {
  a1out_.push_front(p);
  a1out_index_.emplace(p, a1out_.begin());
  while (a1out_.size() > kout_) {
    a1out_index_.erase(a1out_.back());
    a1out_.pop_back();
  }
}

std::optional<PageId> TwoQPolicy::Evict() {
  if (entries_.empty()) return std::nullopt;
  if (a1in_.size() > kin_ || am_.empty()) {
    PageId victim = EvictFromTail(a1in_);
    PushGhost(victim);
    return victim;
  }
  return EvictFromTail(am_);
}

void TwoQPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  (it->second.queue == Queue::kA1in ? a1in_ : am_).erase(it->second.pos);
  entries_.erase(it);
}

void TwoQPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
