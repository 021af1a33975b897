#include "core/belady.h"

#include <unordered_map>
#include <utility>

namespace lruk {

BeladyPolicy::BeladyPolicy(std::vector<PageId> trace)
    : trace_(std::move(trace)) {
  // Backward pass: next_occurrence_[i] = next position referencing the same
  // page, computed in O(T) with a page -> latest position map.
  next_occurrence_.assign(trace_.size(), kNever);
  std::unordered_map<PageId, uint64_t> latest;
  latest.reserve(trace_.size() / 4 + 1);
  for (size_t i = trace_.size(); i-- > 0;) {
    auto it = latest.find(trace_[i]);
    if (it != latest.end()) next_occurrence_[i] = it->second;
    latest[trace_[i]] = i;
  }
}

uint64_t BeladyPolicy::ConsumeReference(PageId p) {
  LRUK_ASSERT(pos_ < trace_.size(), "reference past the end of the trace");
  LRUK_ASSERT(trace_[pos_] == p,
              "reference stream diverged from the oracle trace");
  uint64_t next = next_occurrence_[pos_];
  ++pos_;
  return next;
}

void BeladyPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  uint64_t next = ConsumeReference(p);
  order_.erase(OrderKey{it->second, p});
  order_.insert(OrderKey{next, p});
  it->second = next;
}

void BeladyPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  uint64_t next = ConsumeReference(p);
  entries_.emplace(p, next);
  order_.insert(OrderKey{next, p});
}

std::optional<PageId> BeladyPolicy::Evict() {
  if (order_.empty()) return std::nullopt;
  // Victim: farthest next use (kNever — never referenced again — first).
  auto it = std::prev(order_.end());
  PageId victim = it->page;
  order_.erase(it);
  entries_.erase(victim);
  return victim;
}

void BeladyPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  order_.erase(OrderKey{it->second, p});
  entries_.erase(it);
}

void BeladyPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
