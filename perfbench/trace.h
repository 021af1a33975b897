// Tracing for the driver's per-layer run, measured from outside the
// program: two decorators sit at the layer boundaries and the driver opens
// spans around its own calls into the substrates.
//
//   operation (driver) -> btree / heap call (driver) ->
//     TracingPool: FetchPage / UnpinPage / NewPage ->
//       TracingDisk: ReadPage / WritePage -> SimDiskManager
//
// Every span is timed and accounted exactly (count, total time, self time =
// duration minus the time its child spans cover) into the calling thread's
// ThreadTrace. Span records (parent, operation id, start, end) are kept
// only for sampled operations, in memory reserved before set-up, and are
// written out when the benchmark ends. A fetch is a miss when a disk read
// span opened under it on the same thread, which holds while reads run on
// the caller's thread (the default pool options).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bufferpool/pool_interface.h"
#include "histogram.h"
#include "storage/disk_manager.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kOpLookup,
  kOpUpdate,
  kOpInsert,
  kOpScan,
  kBtree,
  kHeap,
  kFetch,
  kUnpin,
  kNewPage,
  kDiskRead,
  kDiskWrite,
  kCount,
};
inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);
const char* SpanName(SpanKind kind);

struct SpanRecord {
  uint64_t op_id;
  uint32_t parent;  // Index into the same thread's records; kNoParent.
  SpanKind kind;
  int64_t start_ns;
  int64_t end_ns;
};
inline constexpr uint32_t kNoParent = UINT32_MAX;

struct LayerTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// One client thread's trace. Not shared: each client owns one and installs
// it in `tls_trace` for the duration of a traced trial.
class ThreadTrace {
 public:
  // `span_capacity` records are reserved up front; a full buffer drops
  // further records (counted) but never stops the exact accounting.
  // `ref_capacity` pre-sizes the reference stream kept for policy replay.
  ThreadTrace(size_t span_capacity, size_t ref_capacity,
              uint64_t sample_every);

  // Operations are the roots of the span tree; one in `sample_every`
  // keeps its span records.
  void BeginOp(SpanKind kind);
  void EndOp();

  void Begin(SpanKind kind, bool heap_read_call = false);
  void EndPlain();
  void EndFetch(bool ok);
  void EndUnpin(bool dirty);
  void EndDisk(SpanKind kind);

  // Page reference stream for replay through a standalone policy: one
  // packed word per FetchPage / NewPage, stamped relative to `epoch_ns`.
  void RecordRef(lruk::PageId page, bool is_new);
  static void UnpackRef(uint64_t word, int64_t* ts, lruk::PageId* page,
                        bool* is_new);

  // Starts a new trial: clears counters, span records and references.
  void StartTrial(int64_t epoch_ns);
  // Starts the measured phase: clears counters but keeps the reference
  // stream (the replay needs the set-up history) and marks where the
  // measured references begin.
  void StartMeasured();

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<uint64_t>& refs() const { return refs_; }
  size_t measured_ref_begin() const { return measured_ref_begin_; }
  // True when a reference could not be packed (page id or timestamp out
  // of range); the replay is then skipped.
  bool refs_overflowed() const { return refs_overflowed_; }

  // Exact accounting of the current phase.
  std::array<LayerTotals, kNumSpanKinds> layer{};
  LatencyHistogram fetch_hit;
  LatencyHistogram fetch_miss;
  LatencyHistogram unpin;
  LatencyHistogram disk_read;
  uint64_t fetch_misses = 0;
  uint64_t fetch_misses_with_writeback = 0;
  uint64_t failed_fetches = 0;
  int64_t miss_self_ns = 0;  // Miss fetch spans minus their disk children.
  uint64_t btree_fetches = 0;
  uint64_t heap_fetches = 0;
  uint64_t heap_read_calls = 0;
  uint64_t heap_read_dirty_unpins = 0;
  uint64_t spans_dropped = 0;

  // Kept span records whose interval is not inside their parent's.
  uint64_t NestingViolations() const;

 private:
  struct Frame {
    SpanKind kind;
    bool heap_read_call;
    bool had_read;
    bool had_write;
    int64_t start_ns;
    int64_t child_ns;
    uint32_t record;
  };
  static constexpr int kMaxDepth = 16;

  // Pops the top frame and accounts it; returns its duration.
  int64_t Pop(Frame* out);

  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  uint64_t sample_every_;
  uint64_t op_id_ = 0;
  bool sampled_ = false;
  std::vector<SpanRecord> spans_;
  size_t span_capacity_;
  std::vector<uint64_t> refs_;
  size_t measured_ref_begin_ = 0;
  bool refs_overflowed_ = false;
  int64_t epoch_ns_ = 0;
};

// The calling thread's trace, or null when the thread is not traced (then
// the decorators just forward).
extern thread_local ThreadTrace* tls_trace;

// RAII span for the driver's own calls into the substrates.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, bool heap_read_call = false)
      : trace_(tls_trace) {
    if (trace_ != nullptr) trace_->Begin(kind, heap_read_call);
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->EndPlain();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* trace_;
};

// PoolInterface decorator between the substrates and the real pool.
class TracingPool final : public lruk::PoolInterface {
 public:
  explicit TracingPool(lruk::PoolInterface* inner) : inner_(inner) {}

  lruk::Result<lruk::Page*> FetchPage(
      lruk::PageId p, lruk::AccessType type = lruk::AccessType::kRead) override;
  lruk::Result<lruk::Page*> NewPage() override;
  lruk::Status UnpinPage(lruk::PageId p, bool dirty) override;
  lruk::Status FlushPage(lruk::PageId p) override {
    return inner_->FlushPage(p);
  }
  lruk::Status FlushAll() override { return inner_->FlushAll(); }
  lruk::Status DeletePage(lruk::PageId p) override {
    return inner_->DeletePage(p);
  }
  size_t capacity() const override { return inner_->capacity(); }
  size_t ResidentCount() const override { return inner_->ResidentCount(); }
  bool IsResident(lruk::PageId p) const override {
    return inner_->IsResident(p);
  }
  lruk::BufferPoolStats stats() const override { return inner_->stats(); }
  lruk::BufferPoolStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  lruk::PoolInterface* inner_;
};

// DiskManager decorator between the pool and the SimDiskManager.
class TracingDisk final : public lruk::DiskManager {
 public:
  explicit TracingDisk(lruk::DiskManager* inner) : inner_(inner) {}

  lruk::Status ReadPage(lruk::PageId p, char* out) override;
  lruk::Status WritePage(lruk::PageId p, const char* data) override;
  lruk::Result<lruk::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  lruk::Status DeallocatePage(lruk::PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  lruk::IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  lruk::DiskManager* inner_;
};

// Writes the span records of `traces` as tab-separated lines
// (thread, op, span, parent, kind, start_ns, end_ns).
bool WriteSpans(const char* path,
                const std::vector<const ThreadTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
