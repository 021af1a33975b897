// LFU: evicts the resident page with the lowest total reference count.
//
// Per Section 4.3 of the paper, "the inherent drawback of LFU is that it
// never 'forgets' any previous references": the count is cumulative over the
// page's entire lifetime, surviving evictions. That is the variant measured
// in Table 4.3 and the default here; `forget_on_eviction` switches to the
// in-buffer-only variant for ablations. Ties are broken by LRU order.

#ifndef LRUK_CORE_LFU_H_
#define LRUK_CORE_LFU_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

struct LfuOptions {
  // If true, a page's count resets when it leaves the buffer (in-buffer
  // LFU). If false (default, the paper's variant) counts persist forever.
  bool forget_on_eviction = false;
};

class LfuPolicy final : public ReplacementPolicy {
 public:
  explicit LfuPolicy(LfuOptions options = {});

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return resident_.size(); }
  bool IsResident(PageId p) const override { return resident_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override {
    return options_.forget_on_eviction ? "LFU-inbuf" : "LFU";
  }

  // Total reference count recorded for p (0 if never seen). Exposed for
  // tests and the adaptivity experiments.
  uint64_t ReferenceCount(PageId p) const;

 private:
  struct HeapKey {
    uint64_t count;
    uint64_t last_tick;  // LRU tie-break: smaller = older
    PageId page;
    friend auto operator<=>(const HeapKey&, const HeapKey&) = default;
  };

  HeapKey KeyFor(PageId p, uint64_t last_tick) const;

  LfuOptions options_;
  uint64_t tick_ = 0;
  // Persistent counts (all pages ever seen, unless forget_on_eviction).
  std::unordered_map<PageId, uint64_t> counts_;
  // Resident page -> tick of its last reference.
  std::unordered_map<PageId, uint64_t> resident_;
  // Resident pages ordered by (count, recency).
  std::set<HeapKey> heap_;
};

}  // namespace lruk

#endif  // LRUK_CORE_LFU_H_
