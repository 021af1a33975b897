// A0 (Definition 3.1, after [COFFDENN] Theorem 6.3): the optimal policy
// under the Independent Reference Model *without* an oracle over the future.
// It knows the true per-page reference probabilities beta_p and always
// evicts the resident page with the smallest beta_p. The paper uses A0 as
// the yardstick LRU-K should approach; it cannot be implemented in a real
// system (the probabilities are unknown) but is exactly implementable in
// simulation where the workload generator's distribution is known.

#ifndef LRUK_CORE_A0_H_
#define LRUK_CORE_A0_H_

#include <optional>
#include <set>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/replacement_policy.h"

namespace lruk {

class A0Policy final : public ReplacementPolicy {
 public:
  // `probabilities[p]` is beta_p for page id p (pages are the indices).
  // Pages outside the vector are treated as probability 0 (always the
  // first choice for eviction).
  explicit A0Policy(std::vector<double> probabilities);

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "A0"; }

  double ProbabilityOf(PageId p) const;

 private:
  struct OrderKey {
    double prob;
    PageId page;
    friend auto operator<=>(const OrderKey&, const OrderKey&) = default;
  };
  std::vector<double> probabilities_;
  std::unordered_set<PageId> entries_;
  // Resident pages ordered by ascending probability.
  std::set<OrderKey> order_;
};

}  // namespace lruk

#endif  // LRUK_CORE_A0_H_
