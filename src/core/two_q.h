// 2Q (Johnson & Shasha, VLDB 1994) — the direct successor of LRU-2 and part
// of the lineage this paper spawned. Included as the "future work"
// comparison point: 2Q approximates LRU-2's discrimination with constant-
// time operations.
//
// Structure (full version):
//   A1in  — FIFO of pages seen once recently (resident)
//   A1out — FIFO ghost queue of page ids recently evicted from A1in
//           (history only, like LRU-K's retained information)
//   Am    — LRU of pages re-referenced while in A1out (the hot set)
//
// A page faulting in from A1out goes straight to Am; a brand-new page goes
// to A1in. Victims come from A1in's tail while |A1in| > kin, otherwise from
// Am's tail.

#ifndef LRUK_CORE_TWO_Q_H_
#define LRUK_CORE_TWO_Q_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/replacement_policy.h"

namespace lruk {

struct TwoQOptions {
  // Total buffer capacity in pages; sizes the internal thresholds.
  size_t capacity = 0;
  // |A1in| threshold as a fraction of capacity (paper recommends ~25%).
  double kin_fraction = 0.25;
  // |A1out| ghost size as a fraction of capacity (paper recommends ~50%).
  double kout_fraction = 0.50;
};

class TwoQPolicy final : public ReplacementPolicy {
 public:
  explicit TwoQPolicy(TwoQOptions options);

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "2Q"; }

  // Introspection for tests.
  size_t A1inSize() const { return a1in_.size(); }
  size_t A1outSize() const { return a1out_.size(); }
  size_t AmSize() const { return am_.size(); }
  bool InGhost(PageId p) const { return a1out_index_.contains(p); }

 private:
  enum class Queue { kA1in, kAm };

  struct Entry {
    Queue queue;
    std::list<PageId>::iterator pos;
  };

  // Evicts `list`'s tail. Precondition: !list.empty().
  PageId EvictFromTail(std::list<PageId>& list);
  void PushGhost(PageId p);

  TwoQOptions options_;
  size_t kin_;
  size_t kout_;

  std::list<PageId> a1in_;   // FIFO: newest at front.
  std::list<PageId> am_;     // LRU: most recent at front.
  std::list<PageId> a1out_;  // Ghost FIFO: newest at front.
  std::unordered_map<PageId, Entry> entries_;
  std::unordered_map<PageId, std::list<PageId>::iterator> a1out_index_;
};

}  // namespace lruk

#endif  // LRUK_CORE_TWO_Q_H_
