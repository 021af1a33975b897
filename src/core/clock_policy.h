// CLOCK (second-chance): pages sit on a circular list with a reference bit;
// the sweep hand clears bits and evicts the first unreferenced page. A
// cheap LRU approximation, the base of the GCLOCK family [EFFEHAER].

#ifndef LRUK_CORE_CLOCK_POLICY_H_
#define LRUK_CORE_CLOCK_POLICY_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

class ClockPolicy final : public ReplacementPolicy {
 public:
  ClockPolicy() = default;

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "CLOCK"; }

 private:
  struct Slot {
    PageId page;
    bool referenced;
  };

  void AdvanceHand();

  // Circular order; hand_ points at the next sweep position.
  std::list<Slot> ring_;
  std::list<Slot>::iterator hand_ = ring_.end();
  std::unordered_map<PageId, std::list<Slot>::iterator> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_CLOCK_POLICY_H_
