// Workload definitions and the closed-loop client of the end-to-end driver.
//
// Each client owns one partition: a BTree (uint64 key -> packed RecordId)
// over a HeapFile of fixed-size rows, sharing one pool with the other
// clients (BTree has no internal latching, so partitions are what make
// concurrent clients safe). A client issues its next operation only when
// the previous one has returned, with no think time, and runs a fixed
// operation count drawn from a generator seeded by (seed, client), so the
// final database and the I/O counts do not depend on speed. It keeps a
// model of its partition (key -> row version) and checks every lookup and
// scan result against it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "bufferpool/pool_interface.h"
#include "heap/heap_file.h"
#include "histogram.h"

namespace perfbench {

enum class OpType : uint8_t { kLookup, kUpdate, kInsert, kScan };
inline constexpr size_t kNumOpTypes = 4;
const char* OpName(OpType op);

struct WorkloadSpec {
  const char* name;
  const char* why;
  bool sharded;
  size_t shards;  // ShardedBufferPool only.
  size_t frames;
  int clients;
  uint64_t rows_per_client;  // Indexed table rows loaded per partition.
  uint64_t warmup_ops_per_client;
  uint64_t ops_per_client;
  // Operation mix of the indexed table; must sum to 1.
  double p_lookup, p_update, p_insert, p_scan;
  uint32_t scan_rows;  // Rows per short range scan.
  // Cold unindexed table scanned in full once every `lookups_per_full_scan`
  // lookups (scan-mix); 0 rows disables it. A full scan is a kScan op.
  uint64_t cold_rows;
  uint32_t lookups_per_full_scan;
};

// The named workloads; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr size_t kRowSize = 200;

class Client {
 public:
  Client(const WorkloadSpec& spec, int index, uint64_t seed);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Creates an empty partition over `pool` and resets the model, the
  // generator and the latency histograms: every trial replays the same
  // inputs.
  void StartTrial(lruk::PoolInterface* pool);
  // Loads the partition (set-up). False on any failed insert.
  bool Load();
  // Runs `ops` operations; only measured ones are timed and counted.
  void Run(uint64_t ops, bool measured);
  // Drops the substrate objects, remembering their root pages.
  void Detach();
  // Re-attaches to the flushed partition through `pool` (a fresh pool
  // over the same disk), checks the B+tree invariants and re-reads every
  // row against the model. Returns the number of discrepancies.
  uint64_t VerifyDurable(lruk::PoolInterface* pool) const;

  const LatencyHistogram& latency(OpType op) const {
    return latency_[static_cast<size_t>(op)];
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  bool load_ok() const { return load_ok_; }

 private:
  OpType NextOp();
  uint64_t HotKey();
  bool Execute(OpType op, uint64_t key);
  bool CheckResult(OpType op, uint64_t key);
  void Mismatch(const char* what, uint64_t key);

  const WorkloadSpec& spec_;
  int index_;
  uint64_t seed_;
  uint64_t rng_ = 0;
  uint64_t ops_issued_ = 0;

  std::unique_ptr<lruk::BTree> btree_;
  std::unique_ptr<lruk::HeapFile> heap_;
  std::unique_ptr<lruk::HeapFile> cold_;
  lruk::PageId btree_root_ = lruk::kInvalidPageId;
  lruk::PageId heap_head_ = lruk::kInvalidPageId;
  lruk::PageId cold_head_ = lruk::kInvalidPageId;

  // Model: version of every key in [0, next_key_).
  std::vector<uint32_t> version_;
  uint64_t next_key_ = 0;

  // Per-operation buffers, sized once and reused.
  std::array<char, kRowSize> row_{};
  uint32_t pending_version_ = 0;
  std::string lookup_row_;
  std::vector<std::pair<uint64_t, uint64_t>> range_;
  std::vector<std::string> range_rows_;
  uint64_t scan_lo_ = 0;
  uint64_t full_scan_rows_ = 0;
  uint64_t full_scan_bad_ = 0;

  std::array<LatencyHistogram, kNumOpTypes> latency_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  bool load_ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
