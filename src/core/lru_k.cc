#include "core/lru_k.h"

#include <string>
#include <utility>

namespace lruk {

LruKPolicy::LruKPolicy(LruKOptions options)
    : options_(options),
      name_("LRU-" + std::to_string(options.k)),
      table_(options.k, options.retained_information_period,
             options.max_nonresident_history, options.capacity_hint) {
  LRUK_ASSERT(options_.k >= 1 && options_.k <= kMaxHistoryK,
              "LRU-K requires 1 <= K <= kMaxHistoryK");
  if (options_.victim_index == VictimIndex::kLazyHeap &&
      options_.capacity_hint > 0) {
    // Pre-size the heap's backing vector for the expected resident count.
    std::vector<VictimKey> storage;
    storage.reserve(options_.capacity_hint);
    heap_ = decltype(heap_)(std::greater<VictimKey>{}, std::move(storage));
  }
}

bool LruKPolicy::IsResident(PageId p) const {
  const HistoryBlock* block = table_.Find(p);
  return block != nullptr && block->resident;
}

void LruKPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  table_.ForEach([&](PageId page, const HistoryBlock& block) {
    if (block.resident) visit(page);
  });
}

Timestamp LruKPolicy::Tick() {
  if (options_.clock != nullptr) {
    // Wall-clock mode: take the clock's reading, clamped monotone (two
    // references in the same clock quantum share a timestamp, which the
    // victim ordering disambiguates by page id).
    Timestamp now = options_.clock->Now();
    time_ = now > time_ ? now : time_;
  } else {
    ++time_;
  }
  if (options_.retained_information_period != kInfinitePeriod &&
      options_.purge_interval != 0 &&
      time_ - last_purge_time_ >= options_.purge_interval) {
    table_.PurgeExpired(time_);
    last_purge_time_ = time_;
  }
  return time_;
}

void LruKPolicy::HeapPushIfAbsent(PageId p, HistoryBlock& block) {
  // Mostly dead or duplicate entries: rebuild first (which may index p).
  if (!block.in_victim_heap && heap_.size() > 2 * resident_count_) {
    CompactVictimHeap();
  }
  if (block.in_victim_heap) return;
  heap_.push(KeyFor(p, block));
  block.in_victim_heap = true;
}

void LruKPolicy::CompactVictimHeap() {
  // Victim choice depends only on the resident pages' current keys, so
  // keeping one fresh entry per resident page changes no decision.
  std::vector<VictimKey> entries;
  entries.reserve(heap_.size());
  while (!heap_.empty()) {
    entries.push_back(heap_.top());
    heap_.pop();
    if (HistoryBlock* block = table_.Find(entries.back().page)) {
      block->in_victim_heap = false;
    }
  }
  std::vector<VictimKey> live;
  for (const VictimKey& entry : entries) {
    HistoryBlock* block = table_.Find(entry.page);
    if (block == nullptr || !block->resident || block->in_victim_heap) {
      continue;
    }
    live.push_back(KeyFor(entry.page, *block));
    block->in_victim_heap = true;
  }
  heap_ = decltype(heap_)(std::greater<VictimKey>{}, std::move(live));
}

void LruKPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  Timestamp t = Tick();
  HistoryBlock* block = table_.Find(p);
  LRUK_ASSERT(block != nullptr && block->resident,
              "RecordAccess on a non-resident page");

  bool process_differs = options_.per_process_correlation &&
                         block->last_process != current_process_;
  if (process_differs ||
      t - block->last > options_.correlated_reference_period) {
    // A new, uncorrelated reference (Figure 2.1, then-branch): close the
    // correlated period and credit only its start-to-start interval.
    Timestamp correlation_period = block->last - block->hist.front();
    // The victim heap is not touched here: the page's heap entry goes
    // stale and is re-keyed when an eviction pops it (the O(1) hit path).
    // The key only ever grows under this shift, which is what makes
    // staleness safe (see DESIGN.md "Victim index structures").
    for (size_t i = block->hist.size() - 1; i >= 1; --i) {
      // Simultaneous shift; unknown entries (0) stay unknown.
      block->hist[i] =
          block->hist[i - 1] == 0 ? 0 : block->hist[i - 1] + correlation_period;
    }
    block->hist.front() = t;
    block->last = t;
  } else {
    // A correlated reference: only LAST(p) moves; the history (and thus the
    // page's position in the victim order) is unchanged.
    block->last = t;
  }
  block->last_process = current_process_;
}

void LruKPolicy::Admit(PageId p, AccessType /*type*/) {
  // Settle any deferred nominations first: a sequential Evict would have
  // retained its victim's history before this admission ticked the clock,
  // so flushing here keeps the batched path's observable state identical.
  FlushDeferredEvictions();
  Timestamp t = Tick();
  bool had_history = false;
  HistoryBlock& block = table_.GetOrCreate(p, t, &had_history);
  LRUK_ASSERT(!block.resident, "Admit on an already-resident page");

  if (had_history) {
    // Figure 2.1, miss path with existing HIST(p): shift the retained
    // references down one slot to make room for this one.
    for (size_t i = block.hist.size() - 1; i >= 1; --i) {
      block.hist[i] = block.hist[i - 1];
    }
  }
  // Fresh blocks already have every entry at 0 ("no earlier reference").
  block.hist.front() = t;
  block.last = t;
  block.last_process = current_process_;
  block.resident = true;
  if (options_.victim_index == VictimIndex::kLazyHeap) {
    // A pre-eviction entry may survive in the heap (flagged); its key is
    // <= the post-shift key, so it covers this page until re-keyed.
    // Fresh/reset blocks have the flag cleared and get a new entry.
    HeapPushIfAbsent(p, block);
  }
  ++resident_count_;
}

bool LruKPolicy::EligibleAt(const HistoryBlock& block, Timestamp t) const {
  return t - block.last > options_.correlated_reference_period;
}

std::optional<PageId> LruKPolicy::PickVictimLazyHeap(Timestamp t) {
  // Pops ascend by key. Invariant: every resident page has a heap entry
  // with key <= its current key (keys only grow while a block keeps its
  // history; the paths that can shrink a key — RIP expiry, Remove — clear
  // the flag, and the next Admit pushes a fresh entry). So the first pop
  // whose key still matches its block is the true minimum, the page the
  // linear scan would pick.
  std::vector<VictimKey> ineligible;  // Fresh pops inside their CRP.
  std::optional<VictimKey> victim;
  while (!heap_.empty()) {
    VictimKey entry = heap_.top();
    heap_.pop();
    HistoryBlock* block = table_.Find(entry.page);
    if (block == nullptr || !block->resident) {
      // Dead entry: the page left the resident set after the push
      // (eviction or removal, both lazy). Clearing the flag lets the next
      // Admit/Restore re-index the page.
      if (block != nullptr) block->in_victim_heap = false;
      continue;
    }
    VictimKey current = KeyFor(entry.page, *block);
    if (current != entry) {
      // Stale entry: hits advanced the key since the push. Re-key it —
      // each stale entry is re-keyed at most once per search, so the loop
      // terminates and the amortized cost stays one heap op per hit.
      heap_.push(current);
      continue;
    }
    if (EligibleAt(*block, t)) {
      victim = entry;
      break;
    }
    ineligible.push_back(entry);
  }
  size_t keep_from = 0;
  if (!victim && !ineligible.empty()) {
    // Everyone is inside a correlated period; a real buffer manager still
    // has to yield a slot (see header). The first fresh pop is the minimum
    // current key over all residents, eligible or not — the same fallback
    // the linear scan takes.
    victim = ineligible.front();
    keep_from = 1;
    ++fallback_evictions_;
  }
  // Fresh-but-ineligible keys go back; the victim's entry stays consumed.
  for (size_t i = keep_from; i < ineligible.size(); ++i) {
    heap_.push(ineligible[i]);
  }
  if (!victim) return std::nullopt;
  table_.Find(victim->page)->in_victim_heap = false;
  return victim->page;
}

std::optional<PageId> LruKPolicy::PickVictimLinear(Timestamp t) {
  // Figure 2.1's "for all pages q in the buffer" loop, extended with the
  // subsidiary-LRU tie-break on HIST(q,1). Keys ascend by (HIST(q,K),
  // HIST(q,1)), so the smallest eligible key is the page with maximum
  // Backward K-distance; infinite-distance pages (HIST(q,K) == 0) come
  // first.
  std::optional<VictimKey> best;
  std::optional<VictimKey> best_ineligible;
  table_.ForEach([&](PageId page, const HistoryBlock& block) {
    if (!block.resident) return;
    VictimKey key = KeyFor(page, block);
    if (EligibleAt(block, t)) {
      if (!best || key < *best) best = key;
    } else {
      if (!best_ineligible || key < *best_ineligible) best_ineligible = key;
    }
  });
  if (best) return best->page;
  if (best_ineligible) {
    ++fallback_evictions_;
    return best_ineligible->page;
  }
  return std::nullopt;
}

std::optional<PageId> LruKPolicy::EvictOne(bool defer_retention) {
  if (resident_count_ == 0) return std::nullopt;
  // The eviction happens while servicing the *next* reference (Figure 2.1
  // runs victim selection at the faulting reference's time t); our caller
  // invokes Evict() just before Admit() ticks the clock, so eligibility is
  // tested against the prospective time.
  Timestamp t;
  if (options_.clock != nullptr) {
    Timestamp now = options_.clock->Now();
    t = now > time_ ? now : time_;
  } else {
    t = time_ + 1;
  }
  std::optional<PageId> victim =
      options_.victim_index == VictimIndex::kLazyHeap ? PickVictimLazyHeap(t)
                                                      : PickVictimLinear(t);
  // With pages resident, both search modes must produce a victim (the lazy
  // heap's coverage invariant guarantees an entry exists).
  LRUK_ASSERT(victim.has_value(), "victim index lost a resident page");
  if (!victim) return std::nullopt;
  HistoryBlock* block = table_.Find(*victim);
  // History is retained past residence — the whole point of Section 2.1.2
  // — up to the configured non-resident block budget. EvictBatch defers
  // the retention (and the budget enforcement) so a nominee the caller
  // hands straight back via Restore never churns the budget.
  if (defer_retention) {
    block->resident = false;
    deferred_evictions_.push_back(*victim);
  } else {
    table_.OnEvicted(*victim, *block);
  }
  --resident_count_;
  return victim;
}

std::optional<PageId> LruKPolicy::Evict() {
  FlushDeferredEvictions();
  return EvictOne(/*defer_retention=*/false);
}

size_t LruKPolicy::EvictBatch(size_t k, std::vector<PageId>* out) {
  FlushDeferredEvictions();
  out->clear();
  while (out->size() < k) {
    std::optional<PageId> victim = EvictOne(/*defer_retention=*/true);
    if (!victim.has_value()) break;
    out->push_back(*victim);
  }
  return out->size();
}

void LruKPolicy::FlushDeferredEvictions() {
  if (deferred_evictions_.empty()) return;
  for (PageId p : deferred_evictions_) {
    HistoryBlock* block = table_.Find(p);
    // Skip nominees whose block is gone (RIP purge) or resident again
    // (Restored — the nomination was cancelled, nothing to retain).
    if (block == nullptr || block->resident) continue;
    table_.RetainEvicted(p, *block);
  }
  deferred_evictions_.clear();
}

void LruKPolicy::Restore(PageId p) {
  // No Tick(): restoring a failed eviction is not a reference. GetOrCreate
  // takes a retained block back out of the non-resident count (a deferred
  // EvictBatch nominee was never counted); if the eviction's OnEvicted
  // dropped it (budget) or it expired, the page restarts fresh.
  bool had_history = false;
  HistoryBlock& block = table_.GetOrCreate(p, time_, &had_history);
  LRUK_ASSERT(!block.resident, "Restore on a resident page");
  if (!had_history) {
    block.hist.front() = time_;
    block.last = time_;
    block.last_process = current_process_;
  }
  block.resident = true;
  if (options_.victim_index == VictimIndex::kLazyHeap) {
    // Evict()'s pop cleared in_victim_heap for the true victim, so this
    // re-establishes heap coverage with the page's current key.
    HeapPushIfAbsent(p, block);
  }
  ++resident_count_;
}

void LruKPolicy::Remove(PageId p) {
  FlushDeferredEvictions();
  HistoryBlock* block = table_.Find(p);
  LRUK_ASSERT(block != nullptr && block->resident,
              "Remove on a non-resident page");
  // The page's heap entry dangles and is discarded when popped.
  --resident_count_;
  // Remove() means the page object was destroyed (not merely evicted), so
  // its history dies with it.
  table_.Erase(p);
}

std::optional<Timestamp> LruKPolicy::BackwardKDistance(PageId p) const {
  const HistoryBlock* block = table_.Find(p);
  if (block == nullptr || table_.Expired(*block, time_)) return std::nullopt;
  if (block->HistK() == 0) return std::nullopt;  // Fewer than K references.
  return time_ - block->HistK();
}

const HistoryBlock* LruKPolicy::DebugBlock(PageId p) const {
  return table_.Find(p);
}

}  // namespace lruk
