#include "trace.h"

#include <cstdlib>

namespace perfbench {

thread_local ThreadTrace* tls_trace = nullptr;

namespace {

constexpr int kRefPageBits = 19;
constexpr uint64_t kRefPageMask = (uint64_t{1} << kRefPageBits) - 1;
constexpr int kRefTsShift = kRefPageBits + 1;
constexpr int64_t kRefMaxTs = int64_t{1} << (64 - kRefTsShift);

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpLookup: return "op.lookup";
    case SpanKind::kOpUpdate: return "op.update";
    case SpanKind::kOpInsert: return "op.insert";
    case SpanKind::kOpScan: return "op.scan";
    case SpanKind::kBtree: return "btree.call";
    case SpanKind::kHeap: return "heap.call";
    case SpanKind::kFetch: return "bufferpool.FetchPage";
    case SpanKind::kUnpin: return "bufferpool.UnpinPage";
    case SpanKind::kNewPage: return "bufferpool.NewPage";
    case SpanKind::kDiskRead: return "storage.ReadPage";
    case SpanKind::kDiskWrite: return "storage.WritePage";
    case SpanKind::kCount: break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(size_t span_capacity, size_t ref_capacity,
                         uint64_t sample_every)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      span_capacity_(span_capacity) {
  spans_.reserve(span_capacity);
  refs_.reserve(ref_capacity);
}

void ThreadTrace::StartTrial(int64_t epoch_ns) {
  StartMeasured();
  spans_.clear();
  spans_dropped = 0;
  refs_.clear();
  measured_ref_begin_ = 0;
  refs_overflowed_ = false;
  epoch_ns_ = epoch_ns;
  op_id_ = 0;
}

void ThreadTrace::StartMeasured() {
  layer = {};
  fetch_hit.Reset();
  fetch_miss.Reset();
  unpin.Reset();
  disk_read.Reset();
  fetch_misses = 0;
  fetch_misses_with_writeback = 0;
  failed_fetches = 0;
  miss_self_ns = 0;
  btree_fetches = 0;
  heap_fetches = 0;
  heap_read_calls = 0;
  heap_read_dirty_unpins = 0;
  measured_ref_begin_ = refs_.size();
}

void ThreadTrace::BeginOp(SpanKind kind) {
  sampled_ = (op_id_ % sample_every_) == 0;
  Begin(kind);
}

void ThreadTrace::EndOp() {
  EndPlain();
  sampled_ = false;
  ++op_id_;
}

void ThreadTrace::Begin(SpanKind kind, bool heap_read_call) {
  uint32_t record = kNoParent;
  int64_t now = NowNs();
  if (sampled_) {
    if (spans_.size() < span_capacity_) {
      uint32_t parent = depth_ > 0 ? stack_[depth_ - 1].record : kNoParent;
      record = static_cast<uint32_t>(spans_.size());
      spans_.push_back(SpanRecord{op_id_, parent, kind, now, 0});
    } else {
      ++spans_dropped;
    }
  }
  if (kind == SpanKind::kHeap && heap_read_call) ++heap_read_calls;
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "span stack overflow at %s\n", SpanName(kind));
    std::abort();
  }
  stack_[depth_++] = Frame{kind, heap_read_call, false, false, now, 0, record};
}

int64_t ThreadTrace::Pop(Frame* out) {
  int64_t now = NowNs();
  *out = stack_[--depth_];
  int64_t duration = now - out->start_ns;
  LayerTotals& totals = layer[static_cast<size_t>(out->kind)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - out->child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  if (out->record != kNoParent) spans_[out->record].end_ns = now;
  return duration;
}

void ThreadTrace::EndPlain() {
  Frame frame;
  Pop(&frame);
}

void ThreadTrace::EndFetch(bool ok) {
  Frame frame;
  int64_t duration = Pop(&frame);
  if (!ok) ++failed_fetches;
  if (frame.had_read) {
    ++fetch_misses;
    fetch_miss.Record(duration);
    miss_self_ns += duration - frame.child_ns;
    if (frame.had_write) ++fetch_misses_with_writeback;
  } else {
    fetch_hit.Record(duration);
  }
  if (depth_ > 0) {
    SpanKind parent = stack_[depth_ - 1].kind;
    if (parent == SpanKind::kBtree) ++btree_fetches;
    if (parent == SpanKind::kHeap) ++heap_fetches;
  }
}

void ThreadTrace::EndUnpin(bool dirty) {
  Frame frame;
  unpin.Record(Pop(&frame));
  if (dirty && depth_ > 0 && stack_[depth_ - 1].kind == SpanKind::kHeap &&
      stack_[depth_ - 1].heap_read_call) {
    ++heap_read_dirty_unpins;
  }
}

void ThreadTrace::EndDisk(SpanKind kind) {
  Frame frame;
  int64_t duration = Pop(&frame);
  if (kind == SpanKind::kDiskRead) disk_read.Record(duration);
  if (depth_ > 0) {
    Frame& parent = stack_[depth_ - 1];
    if (kind == SpanKind::kDiskRead) parent.had_read = true;
    if (kind == SpanKind::kDiskWrite) parent.had_write = true;
  }
}

void ThreadTrace::RecordRef(lruk::PageId page, bool is_new) {
  int64_t ts = NowNs() - epoch_ns_;
  if (page > kRefPageMask || ts < 0 || ts >= kRefMaxTs) {
    refs_overflowed_ = true;
    return;
  }
  refs_.push_back((static_cast<uint64_t>(ts) << kRefTsShift) |
                  (uint64_t{is_new} << kRefPageBits) | page);
}

void ThreadTrace::UnpackRef(uint64_t word, int64_t* ts, lruk::PageId* page,
                            bool* is_new) {
  *ts = static_cast<int64_t>(word >> kRefTsShift);
  *is_new = ((word >> kRefPageBits) & 1) != 0;
  *page = word & kRefPageMask;
}

uint64_t ThreadTrace::NestingViolations() const {
  uint64_t violations = 0;
  for (const SpanRecord& span : spans_) {
    if (span.end_ns < span.start_ns) ++violations;
    if (span.parent == kNoParent) continue;
    const SpanRecord& parent = spans_[span.parent];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns ||
        span.op_id != parent.op_id) {
      ++violations;
    }
  }
  return violations;
}

bool WriteSpans(const char* path,
                const std::vector<const ThreadTrace*>& traces) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\top\tspan\tparent\tkind\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < traces.size(); ++t) {
    const std::vector<SpanRecord>& spans = traces[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      long long parent = s.parent == kNoParent ? -1 : s.parent;
      std::fprintf(out, "%zu\t%llu\t%zu\t%lld\t%s\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.op_id), i, parent,
                   SpanName(s.kind), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

lruk::Result<lruk::Page*> TracingPool::FetchPage(lruk::PageId p,
                                                 lruk::AccessType type) {
  ThreadTrace* trace = tls_trace;
  if (trace == nullptr) return inner_->FetchPage(p, type);
  trace->RecordRef(p, false);
  trace->Begin(SpanKind::kFetch);
  lruk::Result<lruk::Page*> page = inner_->FetchPage(p, type);
  trace->EndFetch(page.ok());
  return page;
}

lruk::Result<lruk::Page*> TracingPool::NewPage() {
  ThreadTrace* trace = tls_trace;
  if (trace == nullptr) return inner_->NewPage();
  trace->Begin(SpanKind::kNewPage);
  lruk::Result<lruk::Page*> page = inner_->NewPage();
  trace->EndPlain();
  if (page.ok()) trace->RecordRef(page.value()->id(), true);
  return page;
}

lruk::Status TracingPool::UnpinPage(lruk::PageId p, bool dirty) {
  ThreadTrace* trace = tls_trace;
  if (trace == nullptr) return inner_->UnpinPage(p, dirty);
  trace->Begin(SpanKind::kUnpin);
  lruk::Status status = inner_->UnpinPage(p, dirty);
  trace->EndUnpin(dirty);
  return status;
}

lruk::Status TracingDisk::ReadPage(lruk::PageId p, char* out) {
  ThreadTrace* trace = tls_trace;
  if (trace == nullptr) return inner_->ReadPage(p, out);
  trace->Begin(SpanKind::kDiskRead);
  lruk::Status status = inner_->ReadPage(p, out);
  trace->EndDisk(SpanKind::kDiskRead);
  return status;
}

lruk::Status TracingDisk::WritePage(lruk::PageId p, const char* data) {
  ThreadTrace* trace = tls_trace;
  if (trace == nullptr) return inner_->WritePage(p, data);
  trace->Begin(SpanKind::kDiskWrite);
  lruk::Status status = inner_->WritePage(p, data);
  trace->EndDisk(SpanKind::kDiskWrite);
  return status;
}

}  // namespace perfbench
