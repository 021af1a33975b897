#include "core/a0.h"

#include <utility>

namespace lruk {

A0Policy::A0Policy(std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {}

double A0Policy::ProbabilityOf(PageId p) const {
  return p < probabilities_.size() ? probabilities_[p] : 0.0;
}

void A0Policy::RecordAccess(PageId p, AccessType /*type*/) {
  // Probabilities are static: a reference changes nothing for A0.
  LRUK_ASSERT(entries_.contains(p), "RecordAccess on a non-resident page");
}

void A0Policy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  entries_.insert(p);
  order_.insert(OrderKey{ProbabilityOf(p), p});
}

std::optional<PageId> A0Policy::Evict() {
  if (order_.empty()) return std::nullopt;
  OrderKey key = *order_.begin();
  order_.erase(order_.begin());
  entries_.erase(key.page);
  return key.page;
}

void A0Policy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  order_.erase(OrderKey{ProbabilityOf(p), p});
  entries_.erase(it);
}

void A0Policy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (PageId p : entries_) visit(p);
}

}  // namespace lruk
