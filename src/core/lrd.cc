#include "core/lrd.h"

namespace lruk {

LrdPolicy::LrdPolicy(LrdOptions options) : options_(options) {
  LRUK_ASSERT(options_.aging_divisor >= 1, "aging divisor must be >= 1");
}

void LrdPolicy::Tick() {
  ++clock_;
  if (options_.aging_interval != 0 && clock_ % options_.aging_interval == 0) {
    for (auto& [page, entry] : entries_) {
      entry.reference_count /= options_.aging_divisor;
    }
  }
}

double LrdPolicy::DensityOf(const Entry& entry) const {
  uint64_t age = clock_ - entry.admitted_at;
  if (age == 0) age = 1;  // Admitted this tick; avoid division by zero.
  return static_cast<double>(entry.reference_count) /
         static_cast<double>(age);
}

double LrdPolicy::Density(PageId p) const {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Density of a non-resident page");
  return DensityOf(it->second);
}

void LrdPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  Tick();
  ++it->second.reference_count;
}

void LrdPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  Tick();
  entries_.emplace(
      p, Entry{/*reference_count=*/1, /*admitted_at=*/clock_ - 1});
}

std::optional<PageId> LrdPolicy::Evict() {
  const Entry* best = nullptr;
  PageId victim = kInvalidPageId;
  double best_density = 0.0;
  for (const auto& [page, entry] : entries_) {
    double d = DensityOf(entry);
    // Ties broken by smaller page id for determinism.
    if (best == nullptr || d < best_density ||
        (d == best_density && page < victim)) {
      best = &entry;
      victim = page;
      best_density = d;
    }
  }
  if (best == nullptr) return std::nullopt;
  entries_.erase(victim);
  return victim;
}

void LrdPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  entries_.erase(it);
}

void LrdPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
