// Classic LRU (the paper's LRU-1): evicts the least recently used page.

#ifndef LRUK_CORE_LRU_H_
#define LRUK_CORE_LRU_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

// O(1) per operation: a recency list plus a hash map of list iterators.
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy() = default;

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "LRU"; }

 private:
  // Most recently used at the front.
  std::list<PageId> recency_;
  std::unordered_map<PageId, std::list<PageId>::iterator> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_LRU_H_
