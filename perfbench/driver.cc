// End-to-end closed-loop driver over BTree + HeapFile + buffer pool.
//
//   e2e_driver --workload NAME --seed N --seconds S --trace 0|1
//              [--policy SPEC] [--spans-out PATH]
//
// A run repeats trials until `--seconds` have passed (at least three
// untraced trials, or two untraced and two traced with --trace 1). A trial
// builds a fresh database on an in-memory SimDiskManager (set-up: load and
// warm-up), runs every client's fixed operation count (the measured
// phase), then flushes the pool and re-reads every partition through a
// fresh pool against the clients' models. Metrics are medians over trials.
// The pool is built from public constructors with default
// BufferPoolOptions; only the policy spec is selectable. See README.md.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are a human-readable report.

#include <algorithm>
#include <array>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/policy_factory.h"
#include "storage/sim_disk_manager.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

// Frames of the pool that re-reads the flushed database after a trial.
constexpr size_t kVerifyFrames = 1024;
// Share of operation time the layer spans may leave unattributed (the
// driver's own glue inside an operation span) before the traced run is
// reported incorrect.
constexpr double kGlueTolerancePct = 10.0;
// One operation in this many keeps its span records.
constexpr uint64_t kSampleEvery = 64;
constexpr size_t kSpanCapacity = size_t{1} << 16;
constexpr int kMaxTrials = 40;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string policy = "LRU-2";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--policy") {
      args->policy = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag without a value: %s\n", argv[argc - 1]);
    return false;
  }
  return !args->workload.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

size_t ShardCapacity(const WorkloadSpec& spec, size_t shard) {
  return spec.frames / spec.shards + (shard < spec.frames % spec.shards);
}

// Measured-phase totals of the policy replay.
struct Replay {
  bool ok = true;
  uint64_t hits = 0;
  uint64_t fetches = 0;
  uint64_t refs = 0;
  int64_t ns = 0;
};

// Replays the trial's page reference stream (set-up and measured phase,
// merged across client threads by timestamp) through standalone policies
// of the same spec, one per shard at the shard's frame budget. Hits and
// time are counted over the measured references only.
Replay ReplayReferences(
    const WorkloadSpec& spec, const lruk::PolicyConfig& config,
    const lruk::ShardedBufferPool* sharded,
    const std::vector<std::unique_ptr<ThreadTrace>>& traces) {
  Replay replay;
  size_t total = 0;
  size_t measured_begin = 0;
  for (const auto& trace : traces) {
    if (trace->refs_overflowed()) {
      replay.ok = false;
      return replay;
    }
    total += trace->refs().size();
    measured_begin += trace->measured_ref_begin();
  }
  // Entry: page << 9 | shard << 1 | is_new.
  std::vector<uint64_t> stream;
  stream.reserve(total);
  std::vector<size_t> cursor(traces.size(), 0);
  while (stream.size() < total) {
    size_t best = traces.size();
    int64_t best_ts = 0;
    for (size_t t = 0; t < traces.size(); ++t) {
      if (cursor[t] >= traces[t]->refs().size()) continue;
      int64_t ts;
      lruk::PageId page;
      bool is_new;
      ThreadTrace::UnpackRef(traces[t]->refs()[cursor[t]], &ts, &page,
                             &is_new);
      if (best == traces.size() || ts < best_ts) {
        best = t;
        best_ts = ts;
      }
    }
    int64_t ts;
    lruk::PageId page;
    bool is_new;
    ThreadTrace::UnpackRef(traces[best]->refs()[cursor[best]++], &ts, &page,
                           &is_new);
    uint64_t shard = sharded != nullptr ? sharded->ShardOf(page) : 0;
    stream.push_back(page << 9 | shard << 1 | uint64_t{is_new});
  }

  size_t shards = spec.sharded ? spec.shards : 1;
  std::vector<std::unique_ptr<lruk::ReplacementPolicy>> policies;
  std::vector<size_t> capacity;
  for (size_t s = 0; s < shards; ++s) {
    capacity.push_back(spec.sharded ? ShardCapacity(spec, s) : spec.frames);
    lruk::PolicyContext context;
    context.capacity = capacity.back();
    policies.push_back(std::move(lruk::MakePolicy(config, context).value()));
  }
  uint64_t hits = 0;
  uint64_t fetches = 0;
  auto step = [&](uint64_t entry) {
    lruk::PageId page = entry >> 9;
    size_t shard = (entry >> 1) & 0xFF;
    bool is_new = (entry & 1) != 0;
    lruk::ReplacementPolicy& policy = *policies[shard];
    if (!is_new) ++fetches;
    if (policy.IsResident(page)) {
      if (!is_new) ++hits;
      policy.RecordAccess(page, lruk::AccessType::kRead);
      return;
    }
    if (policy.ResidentCount() >= capacity[shard]) policy.Evict();
    policy.Admit(page, lruk::AccessType::kRead);
  };
  for (size_t i = 0; i < measured_begin; ++i) step(stream[i]);
  hits = fetches = 0;
  int64_t start = NowNs();
  for (size_t i = measured_begin; i < stream.size(); ++i) step(stream[i]);
  replay.ns = NowNs() - start;
  replay.hits = hits;
  replay.fetches = fetches;
  replay.refs = stream.size() - measured_begin;
  return replay;
}

// Latency of one operation type in one trial, in microseconds.
struct OpLatency {
  uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;

  double At(double q) const {
    return q >= 0.999 ? p999 : q >= 0.99 ? p99 : q >= 0.9 ? p90 : p50;
  }
};

struct Trial {
  bool traced = false;
  double setup_s = 0;
  // Sum over clients of each client's measured operations over its own
  // measured time, so a client that lags does not stretch the others'.
  double throughput = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t loaded_pages = 0;
  std::array<OpLatency, kNumOpTypes> latency;
  lruk::BufferPoolStats pool;
  lruk::IoStats io;
  Metrics layer;  // Traced trials only.
  double glue_pct = 0;
  uint64_t nesting_violations = 0;
};

Metrics LayerMetrics(const Trial& trial,
                     const std::vector<std::unique_ptr<ThreadTrace>>& traces,
                     const Replay& replay, double* glue_pct) {
  ThreadTrace sum(0, 0, 1);
  for (const auto& t : traces) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      sum.layer[k].calls += t->layer[k].calls;
      sum.layer[k].total_ns += t->layer[k].total_ns;
      sum.layer[k].self_ns += t->layer[k].self_ns;
    }
    sum.fetch_hit.Merge(t->fetch_hit);
    sum.fetch_miss.Merge(t->fetch_miss);
    sum.unpin.Merge(t->unpin);
    sum.disk_read.Merge(t->disk_read);
    sum.fetch_misses += t->fetch_misses;
    sum.fetch_misses_with_writeback += t->fetch_misses_with_writeback;
    sum.failed_fetches += t->failed_fetches;
    sum.miss_self_ns += t->miss_self_ns;
    sum.btree_fetches += t->btree_fetches;
    sum.heap_fetches += t->heap_fetches;
    sum.heap_read_calls += t->heap_read_calls;
    sum.heap_read_dirty_unpins += t->heap_read_dirty_unpins;
  }
  auto layer = [&](SpanKind k) -> const LayerTotals& {
    return sum.layer[static_cast<size_t>(k)];
  };
  const double ops = static_cast<double>(trial.ops);
  const lruk::BufferPoolStats& s = trial.pool;
  const LayerTotals& btree = layer(SpanKind::kBtree);
  const LayerTotals& heap = layer(SpanKind::kHeap);
  const LayerTotals& fetch = layer(SpanKind::kFetch);
  const LayerTotals& unpin = layer(SpanKind::kUnpin);
  const LayerTotals& newpage = layer(SpanKind::kNewPage);
  const LayerTotals& read = layer(SpanKind::kDiskRead);
  const LayerTotals& write = layer(SpanKind::kDiskWrite);

  // Layer sum check: operation time = driver glue + substrate self time +
  // pool self time + disk time, exactly, because every span nests in an
  // operation; the glue share must stay within kGlueTolerancePct.
  double op_total = 0, op_self = 0;
  for (SpanKind k : {SpanKind::kOpLookup, SpanKind::kOpUpdate,
                     SpanKind::kOpInsert, SpanKind::kOpScan}) {
    op_total += static_cast<double>(layer(k).total_ns);
    op_self += static_cast<double>(layer(k).self_ns);
  }
  double substrate_self = static_cast<double>(btree.self_ns + heap.self_ns);
  double pool_self =
      static_cast<double>(fetch.self_ns + unpin.self_ns + newpage.self_ns);
  double disk = static_cast<double>(read.total_ns + write.total_ns);
  double unexplained = op_total - (op_self + substrate_self + pool_self + disk);
  *glue_pct = 100.0 * Ratio(op_self + std::abs(unexplained), op_total);

  auto mean_us = [](const LayerTotals& t, bool self) {
    return Ratio(static_cast<double>(self ? t.self_ns : t.total_ns),
                 static_cast<double>(t.calls)) / 1000.0;
  };
  return Metrics{
      {"bufferpool.fetch_hit_p50_ns", sum.fetch_hit.QuantileNs(0.5)},
      {"bufferpool.fetch_hit_p99_ns", sum.fetch_hit.QuantileNs(0.99)},
      {"bufferpool.unpin_p50_ns", sum.unpin.QuantileNs(0.5)},
      {"bufferpool.latch_acquires_per_op", Ratio(s.latch_acquires, ops)},
      {"bufferpool.optimistic_hit_ratio", Ratio(s.optimistic_hits, s.hits)},
      {"bufferpool.fetch_miss_p50_us", sum.fetch_miss.QuantileNs(0.5) / 1e3},
      {"bufferpool.fetch_miss_p99_us", sum.fetch_miss.QuantileNs(0.99) / 1e3},
      {"bufferpool.miss_self_us_mean",
       Ratio(static_cast<double>(sum.miss_self_ns), sum.fetch_misses) / 1e3},
      {"bufferpool.evictions_per_op", Ratio(s.evictions, ops)},
      {"bufferpool.dirty_writebacks_per_op", Ratio(s.dirty_writebacks, ops)},
      {"bufferpool.fetch_with_writeback_ratio",
       Ratio(sum.fetch_misses_with_writeback, sum.fetch_misses)},
      {"bufferpool.newpage_us_mean", mean_us(newpage, false)},
      {"bufferpool.hit_ratio", s.HitRatio()},
      {"bufferpool.busy_s",
       static_cast<double>(fetch.total_ns + unpin.total_ns +
                           newpage.total_ns) / 1e9},
      {"bufferpool.access_drops", static_cast<double>(s.access_drops)},
      {"bufferpool.failed_fetches", static_cast<double>(sum.failed_fetches)},
      {"bufferpool.coalesced_reads", static_cast<double>(s.coalesced_reads)},
      {"bufferpool.prefetch_used", static_cast<double>(s.prefetch_used)},
      {"bufferpool.background_cleans",
       static_cast<double>(s.background_cleans)},
      {"bufferpool.writebehind_writes",
       static_cast<double>(s.writebehind_writes)},
      {"core.replay_hit_ratio", Ratio(replay.hits, replay.fetches)},
      {"core.policy_ns_per_ref",
       Ratio(static_cast<double>(replay.ns), replay.refs)},
      {"storage.reads_per_op", Ratio(trial.io.reads, ops)},
      {"storage.writes_per_op", Ratio(trial.io.writes, ops)},
      {"storage.read_us_mean", mean_us(read, false)},
      {"storage.read_p99_us", sum.disk_read.QuantileNs(0.99) / 1e3},
      {"storage.write_us_mean", mean_us(write, false)},
      {"storage.busy_s", disk / 1e9},
      {"btree.calls_per_op", Ratio(btree.calls, ops)},
      {"btree.fetches_per_call", Ratio(sum.btree_fetches, btree.calls)},
      {"btree.self_us_mean", mean_us(btree, true)},
      {"heap.calls_per_op", Ratio(heap.calls, ops)},
      {"heap.fetches_per_call", Ratio(sum.heap_fetches, heap.calls)},
      {"heap.self_us_mean", mean_us(heap, true)},
      {"heap.dirty_unpins_per_read_call",
       Ratio(sum.heap_read_dirty_unpins, sum.heap_read_calls)},
      {"trace.glue_pct", *glue_pct},
  };
}

// One database: a SimDiskManager and the pool over it, each wrapped in its
// tracing decorator during traced trials.
struct Database {
  Database(const WorkloadSpec& spec, const lruk::PolicyConfig& config,
           bool traced) {
    lruk::DiskManager* pool_disk = &disk;
    if (traced) {
      tracing_disk = std::make_unique<TracingDisk>(&disk);
      pool_disk = tracing_disk.get();
    }
    if (spec.sharded) {
      auto sharded_pool = std::make_unique<lruk::ShardedBufferPool>(
          spec.frames, spec.shards, pool_disk,
          std::move(lruk::MakeShardPolicyFactory(config).value()));
      sharded = sharded_pool.get();
      base_pool = std::move(sharded_pool);
    } else {
      lruk::PolicyContext context;
      context.capacity = spec.frames;
      base_pool = std::make_unique<lruk::BufferPool>(
          spec.frames, pool_disk,
          std::move(lruk::MakePolicy(config, context).value()));
    }
    pool = base_pool.get();
    if (traced) {
      tracing_pool = std::make_unique<TracingPool>(base_pool.get());
      pool = tracing_pool.get();
    }
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  lruk::SimDiskManager disk;
  std::unique_ptr<TracingDisk> tracing_disk;
  std::unique_ptr<lruk::PoolInterface> base_pool;
  lruk::ShardedBufferPool* sharded = nullptr;  // Set for a sharded pool.
  std::unique_ptr<TracingPool> tracing_pool;
  lruk::PoolInterface* pool = nullptr;  // What the substrates use.
};

// `merged` is a histogram allocated before the first set-up, reused to
// merge the clients' latencies.
void RunTrial(const WorkloadSpec& spec, const lruk::PolicyConfig& config,
              const std::vector<std::unique_ptr<Client>>& clients,
              const std::vector<std::unique_ptr<ThreadTrace>>& traces,
              LatencyHistogram* merged, Trial* out) {
  const bool traced = !traces.empty();
  const size_t n = clients.size();
  Database db(spec, config, traced);
  for (const auto& client : clients) client->StartTrial(db.pool);
  const int64_t trial_start = NowNs();
  for (const auto& trace : traces) trace->StartTrial(trial_start);

  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  std::vector<int64_t> measured_ns(n, 0);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      tls_trace = traced ? traces[c].get() : nullptr;
      Client& client = *clients[c];
      if (client.Load()) {
        sync.arrive_and_wait();  // Loaded.
        client.Run(spec.warmup_ops_per_client, /*measured=*/false);
      } else {
        sync.arrive_and_wait();
      }
      sync.arrive_and_wait();  // Warmed up.
      sync.arrive_and_wait();  // Counters reset: measured phase starts.
      const int64_t start = NowNs();
      if (client.load_ok()) client.Run(spec.ops_per_client, /*measured=*/true);
      measured_ns[c] = NowNs() - start;
      tls_trace = nullptr;
    });
  }
  sync.arrive_and_wait();
  out->loaded_pages = db.disk.NumAllocatedPages();
  sync.arrive_and_wait();
  const int64_t setup_end = NowNs();
  db.pool->ResetStats();
  db.disk.ResetStats();
  for (const auto& trace : traces) trace->StartMeasured();
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  out->traced = traced;
  out->setup_s = static_cast<double>(setup_end - trial_start) / 1e9;
  out->pool = db.pool->stats();
  out->io = db.disk.stats();
  for (size_t op = 0; op < kNumOpTypes; ++op) {
    merged->Reset();
    for (const auto& client : clients) {
      merged->Merge(client->latency(static_cast<OpType>(op)));
    }
    out->latency[op] = OpLatency{merged->count(),
                                 merged->QuantileNs(0.5) / 1e3,
                                 merged->QuantileNs(0.9) / 1e3,
                                 merged->QuantileNs(0.99) / 1e3,
                                 merged->QuantileNs(0.999) / 1e3};
  }
  for (size_t c = 0; c < n; ++c) {
    out->throughput += Ratio(static_cast<double>(clients[c]->attempted()),
                             static_cast<double>(measured_ns[c]) / 1e9);
  }
  for (const auto& client : clients) {
    out->ops += client->attempted();
    out->failed += client->failed();
    out->mismatches += client->mismatches();
    if (!client->load_ok()) ++out->mismatches;
  }

  // The replay needs the pool's shard routing, so it runs before it goes.
  if (traced) {
    Replay replay = ReplayReferences(spec, config, db.sharded, traces);
    if (!replay.ok) ++out->mismatches;
    out->layer = LayerMetrics(*out, traces, replay, &out->glue_pct);
    for (const auto& trace : traces) {
      out->nesting_violations += trace->NestingViolations();
    }
  }

  // Output check: everything acknowledged must be on disk, and is re-read
  // through a fresh pool over the same disk.
  if (!db.pool->FlushAll().ok()) ++out->mismatches;
  for (const auto& client : clients) client->Detach();
  db.tracing_pool.reset();
  db.sharded = nullptr;
  db.base_pool.reset();
  lruk::PolicyContext context;
  context.capacity = kVerifyFrames;
  lruk::BufferPool verify_pool(
      kVerifyFrames, &db.disk,
      std::move(lruk::MakePolicy(config, context).value()));
  for (const auto& client : clients) {
    out->mismatches += client->VerifyDurable(&verify_pool);
  }
}

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<Metrics::value_type, const char*>>&
                   metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [metric, unit] = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.first + "\": {\"value\": " +
            FormatNumber(metric.second) + ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Unit of a per-layer metric, from its name's suffix.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ns") || ends("_ns_per_ref")) return "ns";
  if (ends("_us") || ends("_us_mean")) return "us";
  if (ends("_s")) return "s";
  if (ends("_pct")) return "%";
  if (ends("_ratio")) return "ratio";
  if (ends("_per_op")) return "count/op";
  if (ends("_call")) return "count/call";
  return "count";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--policy SPEC] [--spans-out PATH]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  lruk::Result<lruk::PolicyConfig> config = lruk::ParsePolicySpec(args.policy);
  if (!config.ok() || !lruk::MakeShardPolicyFactory(config.value()).ok()) {
    std::fprintf(stderr, "bad policy spec %s\n", args.policy.c_str());
    return 2;
  }

  // Everything the measured phase writes into is allocated here, before
  // the first set-up.
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < spec->clients; ++c) {
    clients.push_back(std::make_unique<Client>(*spec, c, args.seed));
  }
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  if (args.trace) {
    // Page references per client and trial: ~5 per loaded row, ~20 per
    // operation, and a cold table's pages per full scan.
    size_t refs = 5 * spec->rows_per_client +
                  20 * (spec->warmup_ops_per_client + spec->ops_per_client);
    if (spec->lookups_per_full_scan > 0) {
      refs += (spec->warmup_ops_per_client + spec->ops_per_client) /
              spec->lookups_per_full_scan * (spec->cold_rows / 16);
    }
    for (int c = 0; c < spec->clients; ++c) {
      traces.push_back(
          std::make_unique<ThreadTrace>(kSpanCapacity, refs, kSampleEvery));
    }
  }

  auto merged = std::make_unique<LatencyHistogram>();
  std::vector<Trial> trials;
  trials.reserve(kMaxTrials);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  size_t untraced = 0, traced = 0;
  while (static_cast<int>(trials.size()) < kMaxTrials) {
    bool trace_this = args.trace && trials.size() % 2 == 1;
    static const std::vector<std::unique_ptr<ThreadTrace>> kNoTraces;
    trials.emplace_back();
    RunTrial(*spec, config.value(), clients, trace_this ? traces : kNoTraces,
             merged.get(), &trials.back());
    (trace_this ? traced : untraced)++;
    bool enough = args.trace ? (untraced >= 2 && traced >= 2) : untraced >= 3;
    if (enough && NowNs() >= deadline) break;
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> tput[2], setup, glue;
  for (const Trial& t : trials) {
    attempted += t.ops;
    failed += t.failed;
    if (t.mismatches != 0 || t.nesting_violations != 0) correct = false;
    if (t.traced && t.glue_pct > kGlueTolerancePct) correct = false;
    tput[t.traced].push_back(t.throughput);
    (t.traced ? glue : setup).push_back(t.traced ? t.glue_pct : t.setup_s);
  }
  const Trial& first = trials.front();
  const double data_pages = static_cast<double>(first.loaded_pages);
  std::printf("# workload %s: %s\n", spec->name, spec->why);
  std::printf("# policy %s, %d client(s), %s pool of %zu frames, seed %llu\n",
              args.policy.c_str(), spec->clients,
              spec->sharded ? "sharded" : "plain", spec->frames,
              static_cast<unsigned long long>(args.seed));
  std::printf("# data after load: %.0f pages = %.2fx the frames\n",
              data_pages, data_pages / static_cast<double>(spec->frames));
  std::printf("# trials: %zu untraced, %zu traced; medians over trials\n",
              untraced, traced);

  auto untraced_median = [&](auto fn) {
    std::vector<double> v;
    for (const Trial& t : trials) {
      if (!t.traced) v.push_back(fn(t));
    }
    return Median(v);
  };
  // Per operation type: p50, p90, p99 and the highest percentile with at
  // least ten samples beyond it, with the per-trial sample count.
  for (size_t op = 0; op < kNumOpTypes; ++op) {
    uint64_t samples = first.latency[op].count;
    if (samples == 0) continue;
    double q;
    const char* tail = LatencyHistogram::TailName(samples, &q);
    auto median_us = [&](double at) {
      return untraced_median([&](const Trial& t) {
        return t.latency[op].At(at);
      });
    };
    std::printf("# %-6s n=%llu/trial p50=%.2fus p90=%.2fus p99=%.2fus "
                "tail %s=%.2fus\n",
                OpName(static_cast<OpType>(op)),
                static_cast<unsigned long long>(samples), median_us(0.5),
                median_us(0.9), median_us(0.99), tail, median_us(q));
  }
  std::printf(
      "# disk_reads_per_op=%.4f disk_writes_per_op=%.4f hit_ratio=%.4f "
      "op_error_ratio=%.6f\n",
      untraced_median([](const Trial& t) {
        return Ratio(t.io.reads, t.ops);
      }),
      untraced_median([](const Trial& t) {
        return Ratio(t.io.writes, t.ops);
      }),
      untraced_median([](const Trial& t) { return t.pool.HitRatio(); }),
      Ratio(failed, attempted));

  std::vector<std::pair<Metrics::value_type, const char*>> out;
  if (!args.trace) {
    auto latency_us = [&](OpType op, double q) {
      return untraced_median([&](const Trial& t) {
        return t.latency[static_cast<size_t>(op)].At(q);
      });
    };
    out = {
        {{"throughput_ops_s", Median(tput[0])}, "ops/s"},
        {{"lookup_p50_us", latency_us(OpType::kLookup, 0.5)}, "us"},
        {{"lookup_p90_us", latency_us(OpType::kLookup, 0.9)}, "us"},
        {{"scan_p50_us", latency_us(OpType::kScan, 0.5)}, "us"},
        {{"scan_p90_us", latency_us(OpType::kScan, 0.9)}, "us"},
        {{"setup_s", Median(setup)}, "s"},
        {{"peak_rss_mb", PeakRssMb()}, "MB"},
    };
  } else {
    const Trial* any_traced = nullptr;
    for (const Trial& t : trials) {
      if (t.traced) any_traced = &t;
    }
    for (size_t m = 0; m < any_traced->layer.size(); ++m) {
      std::vector<double> v;
      for (const Trial& t : trials) {
        if (t.traced) v.push_back(t.layer[m].second);
      }
      out.push_back({{any_traced->layer[m].first, Median(v)},
                     LayerUnit(any_traced->layer[m].first)});
    }
    double overhead = 100.0 * (1.0 - Ratio(Median(tput[1]), Median(tput[0])));
    out.push_back({{"trace.overhead_pct", overhead}, "%"});
    std::printf("# layer sum: op time = glue + btree/heap self + pool self + "
                "disk; glue %.2f%% (tolerance %.0f%%)\n",
                Median(glue), kGlueTolerancePct);
    size_t kept = 0;
    uint64_t dropped = 0;
    for (const auto& trace : traces) {
      kept += trace->spans().size();
      dropped += trace->spans_dropped;
    }
    std::printf("# span records of the last traced trial: %zu kept, %llu "
                "dropped (buffer full), 1 operation in %llu sampled\n",
                kept, static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(kSampleEvery));
    if (!args.spans_out.empty()) {
      std::vector<const ThreadTrace*> views;
      for (const auto& trace : traces) views.push_back(trace.get());
      if (!WriteSpans(args.spans_out.c_str(), views)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spans_out.c_str());
      }
    }
  }
  if (!correct) std::printf("# OUTPUT CHECK FAILED\n");
  PrintJson(correct, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
