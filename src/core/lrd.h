// LRD (Least Reference Density, [EFFEHAER]): evicts the resident page with
// the smallest reference density. Two classic variants:
//
//   V1: density = total references / age-in-buffer  (no aging)
//   V2: like V1, but every `aging_interval` references all counts are
//       divided by `aging_divisor`, so history decays.
//
// Reference densities drift with global time, so no static ordering exists;
// Evict() performs the textbook O(n) scan over resident pages.

#ifndef LRUK_CORE_LRD_H_
#define LRUK_CORE_LRD_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

struct LrdOptions {
  // 0 disables aging (variant V1). Otherwise counts decay every
  // aging_interval clock ticks (variant V2).
  uint64_t aging_interval = 0;
  uint64_t aging_divisor = 2;
};

class LrdPolicy final : public ReplacementPolicy {
 public:
  explicit LrdPolicy(LrdOptions options = {});

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override {
    return options_.aging_interval == 0 ? "LRD-V1" : "LRD-V2";
  }

  // Current reference density of resident page p; exposed for tests.
  double Density(PageId p) const;

 private:
  struct Entry {
    uint64_t reference_count = 0;
    uint64_t admitted_at = 0;  // Clock value when the page entered.
  };

  void Tick();
  double DensityOf(const Entry& entry) const;

  LrdOptions options_;
  uint64_t clock_ = 0;
  std::unordered_map<PageId, Entry> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_LRD_H_
