#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "trace.h"

namespace perfbench {
namespace {

using lruk::RecordId;

// 80% of lookups go to 20% of the keys, recursively (the paper's
// Section 4.2 skew); sampled by inverting its closed-form CDF.
const double kSkewTheta = std::log(0.8) / std::log(0.2);
// Multiplier of the bijection rank -> key on [0, n): scatters the hot keys
// over the heap pages instead of packing them into the first few.
constexpr uint64_t kScatter = 2654435761u;  // Prime, above every n used.
constexpr uint32_t kColdTable = 1000;

// Sizes: a 200-byte row leaves 19 rows in a 4 KiB heap page.
const WorkloadSpec kWorkloads[] = {
    {"oltp-zipf",
     "Example 1.1 at scale: skewed index+row reads beside writes, data ~6x "
     "the frames, so the miss path and dirty write-back dominate",
     /*sharded=*/true, /*shards=*/8, /*frames=*/2048, /*clients=*/3,
     /*rows_per_client=*/80000, /*warmup=*/26000, /*ops=*/134000,
     0.50, 0.30, 0.15, 0.05, /*scan_rows=*/16,
     /*cold_rows=*/0, /*lookups_per_full_scan=*/0},
    {"hot-cached",
     "all data fits in the frames and is read-only: only the warm hit "
     "path, policy hit bookkeeping and latch contention run",
     true, 8, 8192, 3, 27000, 27000, 200000, 0.90, 0.0, 0.0, 0.10, 16, 0, 0},
    {"scan-mix",
     "Example 1.2: one client's skewed indexed lookups interleaved with "
     "full scans of a cold table larger than the frames (scan resistance)",
     false, 1, 256, 1, 10000, 9030, 301000, 1.0, 0.0, 0.0, 0.0, 16, 7300,
     300},
};

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NextUnit(uint64_t& state) {  // Uniform in (0, 1].
  return static_cast<double>((SplitMix(state) >> 11) + 1) * 0x1.0p-53;
}

void FillRow(char* out, uint64_t key, uint32_t version, uint32_t table) {
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &version, 4);
  std::memcpy(out + 12, &table, 4);
  uint64_t state = key * 0x9E3779B97F4A7C15ULL ^
                   ((uint64_t{version} << 32) | table);
  for (size_t at = 16; at < kRowSize; at += 8) {
    uint64_t word = SplitMix(state);
    std::memcpy(out + at, &word, 8);
  }
}

bool RowMatches(std::string_view row, uint64_t key, uint32_t version,
                uint32_t table) {
  char expected[kRowSize];
  FillRow(expected, key, version, table);
  return row.size() == kRowSize &&
         std::memcmp(row.data(), expected, kRowSize) == 0;
}

bool RowHeaderMatches(std::string_view row, uint64_t key, uint32_t version,
                      uint32_t table) {
  if (row.size() != kRowSize) return false;
  uint64_t k;
  uint32_t v, t;
  std::memcpy(&k, row.data(), 8);
  std::memcpy(&v, row.data() + 8, 4);
  std::memcpy(&t, row.data() + 12, 4);
  return k == key && v == version && t == table;
}

std::string_view AsView(const std::array<char, kRowSize>& row) {
  return std::string_view(row.data(), row.size());
}

}  // namespace

const char* OpName(OpType op) {
  switch (op) {
    case OpType::kLookup: return "lookup";
    case OpType::kUpdate: return "update";
    case OpType::kInsert: return "insert";
    case OpType::kScan: return "scan";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

Client::Client(const WorkloadSpec& spec, int index, uint64_t seed)
    : spec_(spec), index_(index), seed_(seed) {
  version_.resize(spec.rows_per_client + spec.warmup_ops_per_client +
                  spec.ops_per_client);
  range_.reserve(spec.scan_rows);
  range_rows_.resize(spec.scan_rows);
}

void Client::StartTrial(lruk::PoolInterface* pool) {
  btree_ = std::make_unique<lruk::BTree>(pool);
  heap_ = std::make_unique<lruk::HeapFile>(pool);
  cold_ = spec_.cold_rows > 0 ? std::make_unique<lruk::HeapFile>(pool)
                              : nullptr;
  std::fill(version_.begin(), version_.end(), 0);
  next_key_ = 0;
  uint64_t mix = seed_ * 0xD1B54A32D192ED03ULL + static_cast<uint64_t>(index_);
  rng_ = SplitMix(mix);
  ops_issued_ = 0;
  for (LatencyHistogram& h : latency_) h.Reset();
  attempted_ = failed_ = mismatches_ = 0;
  load_ok_ = true;
}

bool Client::Load() {
  const uint32_t table = static_cast<uint32_t>(index_);
  for (uint64_t key = 0; key < spec_.rows_per_client; ++key) {
    FillRow(row_.data(), key, 0, table);
    lruk::Result<RecordId> rid = heap_->Insert(AsView(row_));
    if (!rid.ok() || !btree_->Insert(key, rid->Pack()).ok()) {
      load_ok_ = false;
      return false;
    }
    ++next_key_;
  }
  for (uint64_t i = 0; i < spec_.cold_rows; ++i) {
    FillRow(row_.data(), i, 0, kColdTable + table);
    if (!cold_->Insert(AsView(row_)).ok()) {
      load_ok_ = false;
      return false;
    }
  }
  return true;
}

OpType Client::NextOp() {
  if (spec_.cold_rows > 0) {
    uint64_t cycle = uint64_t{spec_.lookups_per_full_scan} + 1;
    return ops_issued_ % cycle == cycle - 1 ? OpType::kScan : OpType::kLookup;
  }
  double u = NextUnit(rng_);
  if (u <= spec_.p_lookup) return OpType::kLookup;
  if (u <= spec_.p_lookup + spec_.p_update) return OpType::kUpdate;
  if (u <= spec_.p_lookup + spec_.p_update + spec_.p_insert) {
    return OpType::kInsert;
  }
  return OpType::kScan;
}

uint64_t Client::HotKey() {
  const uint64_t n = spec_.rows_per_client;
  double rank = std::ceil(static_cast<double>(n) *
                          std::pow(NextUnit(rng_), 1.0 / kSkewTheta));
  uint64_t r = std::clamp<uint64_t>(static_cast<uint64_t>(rank), 1, n) - 1;
  return (r * kScatter) % n;
}

void Client::Run(uint64_t ops, bool measured) {
  const uint32_t table = static_cast<uint32_t>(index_);
  for (uint64_t i = 0; i < ops; ++i) {
    OpType op = NextOp();
    uint64_t key = 0;
    switch (op) {
      case OpType::kLookup:
        key = HotKey();
        break;
      case OpType::kUpdate:
        key = HotKey();
        pending_version_ = version_[key] + 1;
        FillRow(row_.data(), key, pending_version_, table);
        break;
      case OpType::kInsert:
        key = next_key_;
        FillRow(row_.data(), key, 0, table);
        break;
      case OpType::kScan:
        if (spec_.cold_rows == 0) key = HotKey();
        break;
    }
    ++ops_issued_;

    ThreadTrace* trace = tls_trace;
    int64_t start = NowNs();
    if (trace != nullptr) {
      trace->BeginOp(static_cast<SpanKind>(static_cast<int>(op)));
    }
    bool ok = Execute(op, key);
    if (trace != nullptr) trace->EndOp();
    int64_t end = NowNs();

    if (measured) {
      latency_[static_cast<size_t>(op)].Record(end - start);
      ++attempted_;
      if (!ok) ++failed_;
    }
    if (ok) CheckResult(op, key);
  }
}

bool Client::Execute(OpType op, uint64_t key) {
  switch (op) {
    case OpType::kLookup:
    case OpType::kUpdate: {
      uint64_t packed;
      {
        SpanScope span(SpanKind::kBtree);
        lruk::Result<uint64_t> found = btree_->Get(key);
        if (!found.ok()) return false;
        packed = found.value();
      }
      if (op == OpType::kUpdate) {
        SpanScope span(SpanKind::kHeap);
        return heap_->Update(RecordId::Unpack(packed), AsView(row_)).ok();
      }
      SpanScope span(SpanKind::kHeap, /*heap_read_call=*/true);
      lruk::Result<std::string> row = heap_->Get(RecordId::Unpack(packed));
      if (!row.ok()) return false;
      lookup_row_ = std::move(row.value());
      return true;
    }
    case OpType::kInsert: {
      RecordId rid;
      {
        SpanScope span(SpanKind::kHeap);
        lruk::Result<RecordId> inserted = heap_->Insert(AsView(row_));
        if (!inserted.ok()) return false;
        rid = inserted.value();
      }
      SpanScope span(SpanKind::kBtree);
      return btree_->Insert(key, rid.Pack()).ok();
    }
    case OpType::kScan: {
      if (spec_.cold_rows > 0) {
        full_scan_rows_ = 0;
        full_scan_bad_ = 0;
        const uint32_t table = kColdTable + static_cast<uint32_t>(index_);
        SpanScope span(SpanKind::kHeap, /*heap_read_call=*/true);
        return cold_
            ->Scan([&](RecordId, std::string_view row) {
              if (!RowHeaderMatches(row, full_scan_rows_, 0, table)) {
                ++full_scan_bad_;
              }
              ++full_scan_rows_;
              return true;
            })
            .ok();
      }
      scan_lo_ = key;
      range_.clear();
      {
        SpanScope span(SpanKind::kBtree);
        auto found = btree_->Range(key, key + spec_.scan_rows - 1);
        if (!found.ok()) return false;
        range_ = std::move(found.value());
      }
      if (range_.size() > range_rows_.size()) return true;  // Checked later.
      for (size_t i = 0; i < range_.size(); ++i) {
        SpanScope span(SpanKind::kHeap, /*heap_read_call=*/true);
        lruk::Result<std::string> row =
            heap_->Get(RecordId::Unpack(range_[i].second));
        if (!row.ok()) return false;
        range_rows_[i] = std::move(row.value());
      }
      return true;
    }
  }
  return false;
}

bool Client::CheckResult(OpType op, uint64_t key) {
  const uint32_t table = static_cast<uint32_t>(index_);
  switch (op) {
    case OpType::kLookup:
      if (!RowMatches(lookup_row_, key, version_[key], table)) {
        Mismatch("lookup row", key);
        return false;
      }
      return true;
    case OpType::kUpdate:
      version_[key] = pending_version_;
      return true;
    case OpType::kInsert:
      version_[key] = 0;
      ++next_key_;
      return true;
    case OpType::kScan: {
      if (spec_.cold_rows > 0) {
        if (full_scan_rows_ != spec_.cold_rows || full_scan_bad_ != 0) {
          Mismatch("full scan", full_scan_rows_);
          return false;
        }
        return true;
      }
      uint64_t hi = std::min(scan_lo_ + spec_.scan_rows - 1, next_key_ - 1);
      if (range_.size() != hi - scan_lo_ + 1) {
        Mismatch("range size", scan_lo_);
        return false;
      }
      for (size_t i = 0; i < range_.size(); ++i) {
        uint64_t k = scan_lo_ + i;
        if (range_[i].first != k ||
            !RowMatches(range_rows_[i], k, version_[k], table)) {
          Mismatch("range row", k);
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

void Client::Mismatch(const char* what, uint64_t key) {
  if (mismatches_ < 5) {
    std::fprintf(stderr, "client %d: wrong %s at key %llu\n", index_, what,
                 static_cast<unsigned long long>(key));
  }
  ++mismatches_;
}

void Client::Detach() {
  btree_root_ = btree_->RootPageId();
  heap_head_ = heap_->HeadPageId();
  cold_head_ = cold_ ? cold_->HeadPageId() : lruk::kInvalidPageId;
  btree_.reset();
  heap_.reset();
  cold_.reset();
}

uint64_t Client::VerifyDurable(lruk::PoolInterface* pool) const {
  const uint32_t table = static_cast<uint32_t>(index_);
  uint64_t bad = 0;
  lruk::BTree btree(pool, {}, btree_root_);
  if (!btree.CheckInvariants().ok()) ++bad;
  auto entries = btree.Range(0, UINT64_MAX);
  if (!entries.ok() || entries->size() != next_key_) ++bad;

  lruk::HeapFile heap(pool, heap_head_);
  uint64_t seen = 0;
  lruk::Status scanned = heap.Scan([&](RecordId rid, std::string_view row) {
    if (seen >= next_key_ || !RowMatches(row, seen, version_[seen], table)) {
      ++bad;
    } else if (entries.ok() && seen < entries->size() &&
               ((*entries)[seen].first != seen ||
                RecordId::Unpack((*entries)[seen].second) != rid)) {
      ++bad;
    }
    ++seen;
    return true;
  });
  if (!scanned.ok() || seen != next_key_) ++bad;

  if (spec_.cold_rows > 0) {
    lruk::HeapFile cold(pool, cold_head_);
    uint64_t i = 0;
    scanned = cold.Scan([&](RecordId, std::string_view row) {
      if (!RowMatches(row, i, 0, kColdTable + table)) ++bad;
      ++i;
      return true;
    });
    if (!scanned.ok() || i != spec_.cold_rows) ++bad;
  }
  return bad;
}

}  // namespace perfbench
