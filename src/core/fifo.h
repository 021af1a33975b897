// FIFO: evicts the page that has been resident the longest, ignoring
// re-references entirely. The simplest baseline (analyzed alongside LRU in
// [DANTOWS], cited by the paper).

#ifndef LRUK_CORE_FIFO_H_
#define LRUK_CORE_FIFO_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

class FifoPolicy final : public ReplacementPolicy {
 public:
  FifoPolicy() = default;

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "FIFO"; }

 private:
  // Newest admission at the front; victims come from the back.
  std::list<PageId> arrival_;
  std::unordered_map<PageId, std::list<PageId>::iterator> entries_;
};

}  // namespace lruk

#endif  // LRUK_CORE_FIFO_H_
