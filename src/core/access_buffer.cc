#include "core/access_buffer.h"

#include <algorithm>
#include <thread>

namespace lruk {

namespace {
size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

AccessBuffer::Stripe::Stripe(size_t capacity) : cells(capacity) {
  for (size_t i = 0; i < capacity; ++i) {
    cells[i].seq.store(i, std::memory_order_relaxed);
  }
}

AccessBuffer::AccessBuffer(size_t capacity, size_t stripes)
    : capacity_(capacity) {
  LRUK_ASSERT(capacity >= 1, "access buffer needs capacity >= 1");
  LRUK_ASSERT(stripes >= 1, "access buffer needs at least one stripe");
  // Keep >= 2 physical cells so a lap's published sequence (ticket + 1)
  // never collides with the next ticket; TryPush enforces the logical
  // `capacity_` itself.
  size_t rounded = RoundUpPowerOfTwo(capacity < 2 ? 2 : capacity);
  mask_ = rounded - 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(rounded));
  }
  scratch_.reserve(rounded);
}

size_t AccessBuffer::AutoStripeCount() {
  static const size_t count = [] {
    size_t threads = std::thread::hardware_concurrency();  // 0 if unknown.
    return std::min(RoundUpPowerOfTwo(std::max<size_t>(threads, 1)),
                    kMaxAutoStripes);
  }();
  return count;
}

size_t AccessBuffer::ThreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

bool AccessBuffer::TryPush(const AccessRecord& record) {
  Stripe& stripe = *stripes_[ThreadIndex() % stripes_.size()];
  // Wait-free ticket claim. An abandoned ticket (any `return false` below)
  // is reclaimed by the drain sealing its cell, so advancing the tail here
  // is always safe.
  uint64_t ticket = stripe.tail.fetch_add(1, std::memory_order_relaxed);
  // Logical capacity bound. A stale `head` only under-counts drains and
  // makes this conservatively refuse; the cell CAS below is the hard
  // occupancy bound at the physical ring size.
  if (ticket - stripe.head.load(std::memory_order_relaxed) >= capacity_) {
    full_pushes_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Cell& cell = stripe.cells[ticket & mask_];
  // Acquire the cell: CAS seq from `ticket` to `ticket | kClaimedBit`.
  // Success-order acquire pairs with the drain's release restore of the
  // previous lap, proving its record was fully consumed before we
  // overwrite it.
  bool claimed = false;
  int spins = kClaimSpins;
  for (;;) {
    uint64_t expected = ticket;
    if (cell.seq.compare_exchange_weak(expected, ticket | kClaimedBit,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      claimed = true;
      break;
    }
    // A plain value above our ticket means the drain sealed it (or a later
    // lap already owns the cell): this ticket is dead, give up now. Any
    // other value is the previous lap still in flight — published but
    // undrained, or claimed by its producer — which a concurrent drain may
    // clear, so spin briefly.
    if ((expected & kClaimedBit) == 0 && expected > ticket) break;
    if (--spins < 0) break;
  }
  if (!claimed) {
    full_pushes_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  cell.record = record;
  cell.seq.store(ticket + 1, std::memory_order_release);
  return true;
}

size_t AccessBuffer::Drain(ReplacementPolicy& policy, bool skip_non_resident,
                           size_t* dropped) {
  size_t applied = 0;
  size_t skipped = 0;
  ++drain_stats_.drains;
  for (auto& owned : stripes_) {
    Stripe& stripe = *owned;
    scratch_.clear();
    uint64_t ticket = stripe.head.load(std::memory_order_relaxed);
    // A relaxed tail is a monotonic lower bound on the tickets handed out:
    // anything below it was definitely claimed (or abandoned) by some
    // producer, so sealing is safe; anything at or above it may be a
    // future ticket and must be left alone.
    const uint64_t tail = stripe.tail.load(std::memory_order_relaxed);
    int publish_spins = kPublishSpins;
    while (ticket != tail) {
      Cell& cell = stripe.cells[ticket & mask_];
      uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == ticket + 1) {
        // Published: consume, then release the cell for the next lap.
        scratch_.push_back(cell.record);
        cell.seq.store(ticket + mask_ + 1, std::memory_order_release);
        ++ticket;
        continue;
      }
      if (seq == ticket) {
        // Unclaimed but below the tail: an abandoned ticket, or a producer
        // between fetch_add and its claim CAS. Seal it so the ring cannot
        // wedge; if the producer sneaks its claim in first, our CAS fails
        // and we re-examine the cell.
        uint64_t want = ticket;
        if (cell.seq.compare_exchange_strong(want, ticket + mask_ + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
          ++ticket;
        }
        continue;
      }
      if (seq == (ticket | kClaimedBit)) {
        // Claimed, record write in flight — the producer is a few stores
        // away from publishing. Spin briefly, then stop the stripe here:
        // head stays put and the next drain picks this record (and
        // everything stalled behind it) up.
        if (--publish_spins >= 0) continue;
        break;
      }
      // Any other value (a later lap) means this ticket was already
      // consumed under a different head snapshot — cannot happen while we
      // are the only consumer.
      LRUK_ASSERT(false, "access buffer drain saw an inconsistent cell");
      break;
    }
    stripe.head.store(ticket, std::memory_order_relaxed);
    if (skip_non_resident) {
      // Compact in place, preserving FIFO order of the survivors.
      size_t kept = 0;
      for (const AccessRecord& r : scratch_) {
        if (policy.IsResident(r.page)) scratch_[kept++] = r;
      }
      skipped += scratch_.size() - kept;
      scratch_.resize(kept);
    }
    if (!scratch_.empty()) {
      policy.RecordAccessBatch(scratch_.data(), scratch_.size());
      applied += scratch_.size();
    }
  }
  drain_stats_.drained_records += applied;
  drain_stats_.dropped_records += skipped;
  if (applied == 0) ++drain_stats_.empty_drains;
  if (dropped != nullptr) *dropped += skipped;
  return applied;
}

}  // namespace lruk
