// MRU: evicts the *most* recently used page. A niche baseline that is
// optimal for cyclic scans larger than the buffer (where LRU degenerates to
// a 0% hit ratio); included for the scan-resistance experiments.

#ifndef LRUK_CORE_MRU_H_
#define LRUK_CORE_MRU_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

class MruPolicy final : public ReplacementPolicy {
 public:
  MruPolicy() = default;

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "MRU"; }

 private:
  // Most recently used at the front; victims come from the front.
  std::list<PageId> recency_;
  std::unordered_map<PageId, std::list<PageId>::iterator> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_MRU_H_
