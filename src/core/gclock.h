// GCLOCK (Generalized CLOCK, [EFFEHAER]): like CLOCK but each page carries a
// reference *counter* instead of a single bit. A reference sets (or
// increments) the counter; the sweep decrements counters and evicts the
// first page whose counter is zero. The paper cites GCLOCK as the kind of
// counter-based aging scheme that "depends critically on a careful choice of
// various workload-dependent parameters" — the knobs below are exactly
// those parameters.

#ifndef LRUK_CORE_GCLOCK_H_
#define LRUK_CORE_GCLOCK_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

struct GClockOptions {
  // Counter value given to a page when it is admitted.
  uint32_t initial_count = 1;
  // If true a re-reference adds `reference_increment` to the counter
  // (capped at max_count); if false it *sets* the counter to
  // reference_increment (the "set on reference" GCLOCK variant).
  bool increment_on_reference = true;
  uint32_t reference_increment = 1;
  uint32_t max_count = 8;
};

class GClockPolicy final : public ReplacementPolicy {
 public:
  explicit GClockPolicy(GClockOptions options = {});

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "GCLOCK"; }

 private:
  struct Slot {
    PageId page;
    uint32_t count;
  };

  void AdvanceHand();

  GClockOptions options_;
  std::list<Slot> ring_;
  std::list<Slot>::iterator hand_ = ring_.end();
  std::unordered_map<PageId, std::list<Slot>::iterator> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_GCLOCK_H_
