#include "core/domain_separation.h"

#include <utility>

namespace lruk {

DomainSeparationPolicy::DomainSeparationPolicy(
    DomainSeparationOptions options)
    : options_(std::move(options)) {
  LRUK_ASSERT(options_.classifier != nullptr,
              "domain separation needs a classifier");
  LRUK_ASSERT(!options_.domain_capacities.empty(),
              "domain separation needs at least one domain");
  for (size_t capacity : options_.domain_capacities) {
    LRUK_ASSERT(capacity >= 1, "every domain needs at least one frame");
    domains_.push_back(std::make_unique<LruPolicy>());
  }
}

uint32_t DomainSeparationPolicy::DomainOf(PageId p) const {
  uint32_t domain = options_.classifier(p);
  LRUK_ASSERT(domain < domains_.size(), "classifier returned a bad domain");
  return domain;
}

void DomainSeparationPolicy::RecordAccess(PageId p, AccessType type) {
  domains_[DomainOf(p)]->RecordAccess(p, type);
}

void DomainSeparationPolicy::Admit(PageId p, AccessType type) {
  if (pending_ == p) pending_.reset();
  uint32_t domain = DomainOf(p);
  LruPolicy& lru = *domains_[domain];
  if (lru.ResidentCount() == options_.domain_capacities[domain]) {
    // The domain is full even though the pool as a whole may not be: evict
    // within the domain (the whole point of Reiter's scheme).
    auto victim = lru.Evict();
    LRUK_ASSERT(victim.has_value(), "full domain yielded no victim");
    internal_evictions_.push_back(*victim);
  }
  lru.Admit(p, type);
}

std::optional<PageId> DomainSeparationPolicy::Evict() {
  // Preferred victim: the faulting page's own domain (announced via
  // PrepareAdmit); domains at capacity otherwise.
  if (pending_.has_value()) {
    uint32_t domain = DomainOf(*pending_);
    if (auto victim = domains_[domain]->Evict()) return victim;
  }
  for (size_t d = 0; d < domains_.size(); ++d) {
    if (domains_[d]->ResidentCount() >= options_.domain_capacities[d]) {
      if (auto victim = domains_[d]->Evict()) return victim;
    }
  }
  for (auto& domain : domains_) {
    if (auto victim = domain->Evict()) return victim;
  }
  return std::nullopt;
}

void DomainSeparationPolicy::Remove(PageId p) {
  domains_[DomainOf(p)]->Remove(p);
}

size_t DomainSeparationPolicy::ResidentCount() const {
  size_t total = 0;
  for (const auto& domain : domains_) total += domain->ResidentCount();
  return total;
}

bool DomainSeparationPolicy::IsResident(PageId p) const {
  return domains_[DomainOf(p)]->IsResident(p);
}

void DomainSeparationPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& domain : domains_) domain->ForEachResident(visit);
}

std::vector<PageId> DomainSeparationPolicy::TakeInternalEvictions() {
  return std::exchange(internal_evictions_, {});
}

size_t DomainSeparationPolicy::DomainResidentCount(uint32_t domain) const {
  LRUK_ASSERT(domain < domains_.size(), "bad domain index");
  return domains_[domain]->ResidentCount();
}

}  // namespace lruk
