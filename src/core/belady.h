// B0 — Belady's MIN/OPT algorithm [BELADY]: evicts the resident page whose
// next reference lies farthest in the future. Requires an oracle (the full
// reference string), so it is only usable offline; the paper argues A0, not
// B0, is the right optimality yardstick under probabilistic knowledge, but
// B0 gives the absolute hit-ratio ceiling for any concrete trace.
//
// The policy is constructed with the exact trace it will observe. Each
// RecordAccess/Admit consumes one trace position and must reference the
// page at that position (asserted), keeping the oracle honest.

#ifndef LRUK_CORE_BELADY_H_
#define LRUK_CORE_BELADY_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/replacement_policy.h"

namespace lruk {

class BeladyPolicy final : public ReplacementPolicy {
 public:
  // `trace[i]` is the page referenced at logical time i (0-based).
  explicit BeladyPolicy(std::vector<PageId> trace);

  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  size_t ResidentCount() const override { return entries_.size(); }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "B0"; }

  // Number of trace positions consumed so far.
  size_t Position() const { return pos_; }

 private:
  static constexpr uint64_t kNever = UINT64_MAX;

  struct OrderKey {
    uint64_t next_use;  // kNever sorts last == evicted first (we use max).
    PageId page;
    friend auto operator<=>(const OrderKey&, const OrderKey&) = default;
  };
  // Consumes the current trace position for page p and returns the position
  // of p's next reference (kNever if none).
  uint64_t ConsumeReference(PageId p);

  std::vector<PageId> trace_;
  // next_occurrence_[i] = position of the next reference to trace_[i] after
  // i, or kNever.
  std::vector<uint64_t> next_occurrence_;
  size_t pos_ = 0;
  // Resident page -> position of its next reference (kNever if none).
  std::unordered_map<PageId, uint64_t> entries_;
  // Resident pages; victim = max next_use.
  std::set<OrderKey> order_;
};

}  // namespace lruk

#endif  // LRUK_CORE_BELADY_H_
