// RANDOM: evicts a uniformly random resident page. The memoryless control
// baseline — any policy worth its bookkeeping must beat it on skewed
// workloads.

#ifndef LRUK_CORE_RANDOM_POLICY_H_
#define LRUK_CORE_RANDOM_POLICY_H_

#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/replacement_policy.h"
#include "util/random.h"

namespace lruk {

// O(1) per operation via the swap-with-last vector trick.
class RandomPolicy final : public ReplacementPolicy {
 public:
  explicit RandomPolicy(uint64_t seed = 0xC0FFEE);

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "RANDOM"; }

 private:
  // Swap-removes the page at `slot` of pages_.
  void RemoveSlot(size_t slot);

  RandomEngine rng_;
  // The resident pages, in no particular order; victims are drawn from it.
  std::vector<PageId> pages_;
  // Resident page -> its index in pages_.
  std::unordered_map<PageId, size_t> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_RANDOM_POLICY_H_
