// Bookkeeping-overhead microbenchmark (the paper's claim that LRU-K "is
// fairly simple and incurs little bookkeeping overhead"). Two parts:
//
//  1. Catalog sweep — nanoseconds per reference (the full hit-or-admit-
//     with-eviction step at a fixed buffer size) for every policy in the
//     catalog, on the Zipfian 80-20 stream. An 8.5 ms 1993 disk read is
//     ~10^5 of these steps, so sub-microsecond numbers substantiate the
//     claim.
//
//  2. Victim-index grid — LRU-2 under each victim-search structure
//     (lazy_heap / linear; see DESIGN.md "Victim index structures") at
//     two resident-set sizes, on a 95%-hot / 5%-cold stream: mostly hits
//     (where the lazy heap does nothing) with enough cold misses to keep
//     evictions honest. Before timing, both modes are driven over one
//     shared trace and their Evict() sequences compared element-wise.
//
// Every catalog row and index cell is timed kRepetitions times, each on a
// freshly built and warmed policy, going round-robin over the rows; the
// tables print the median and the JSON adds the min and max.
//
// Shape check: victim sequences identical across the two index modes,
// both sizes.
//
// Flags: --json <path>, --quick, and the provenance flags of
// bench_common.h (--git-sha/--build-type/--sanitizer, stamped into the
// JSON by run_quick.sh).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "sim/table.h"
#include "util/random.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

constexpr size_t kCatalogCapacity = 1024;
constexpr int kRepetitions = 5;

// One hit-or-admit reference step; the unit both parts measure. Generic
// so the index grid's calls on the final LruKPolicy are devirtualized.
template <typename Policy>
inline void Step(Policy& p, PageId page, size_t capacity) {
  if (p.IsResident(page)) {
    p.RecordAccess(page, AccessType::kRead);
  } else {
    if (p.ResidentCount() == capacity) (void)p.Evict();
    p.Admit(page, AccessType::kRead);
  }
}

// Median, min and max of one cell's repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Spread{samples[samples.size() / 2], samples.front(), samples.back()};
}

// Warms a fresh policy with one pass over `trace`, then times `ops`
// steps cycling through it; returns ns per reference.
template <typename Policy>
double TimeSteps(Policy& p, const std::vector<PageId>& trace,
                 size_t capacity, uint64_t ops) {
  for (PageId page : trace) Step(p, page, capacity);
  size_t i = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t n = 0; n < ops; ++n) {
    Step(p, trace[i], capacity);
    if (++i == trace.size()) i = 0;
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return seconds * 1e9 / static_cast<double>(ops);
}

// --- Part 1: catalog sweep -------------------------------------------------

std::vector<PageId> ZipfTrace(size_t length) {
  ZipfianOptions zopt;
  zopt.num_pages = 16384;
  zopt.seed = 77;
  ZipfianWorkload gen(zopt);
  return MaterializeTrace(gen, length);
}

struct CatalogRow {
  std::string name;
  Spread ns_per_ref;
};

// One timed run on a freshly built policy; returns ns per reference.
double TimeCatalogPolicy(const PolicyConfig& config,
                         const std::vector<PageId>& trace, uint64_t ops) {
  PolicyContext context;
  context.capacity = kCatalogCapacity;
  auto policy = MakePolicy(config, context);
  LRUK_ASSERT(policy.ok(), "catalog policy failed to build");
  return TimeSteps(**policy, trace, kCatalogCapacity, ops);
}

// --- Part 2: victim-index grid ---------------------------------------------

const char* IndexName(VictimIndex index) {
  switch (index) {
    case VictimIndex::kLazyHeap: return "lazy_heap";
    case VictimIndex::kLinear: return "linear";
  }
  return "?";
}

// 95% uniform over a hot set that fits in the buffer, 5% uniform over a
// 10x-capacity cold range: a high hit rate (the regime the lazy heap
// optimizes) with a steady eviction trickle (so PickVictim is exercised).
std::vector<PageId> IndexTrace(size_t resident, size_t length,
                               uint64_t seed) {
  std::vector<PageId> trace;
  trace.reserve(length);
  RandomEngine rng(seed);
  uint64_t hot = resident * 3 / 4;
  uint64_t cold = resident * 10;
  for (size_t i = 0; i < length; ++i) {
    if (rng.NextBernoulli(0.95)) {
      trace.push_back(1 + rng.NextBounded(hot));
    } else {
      trace.push_back(1 + hot + rng.NextBounded(cold));
    }
  }
  return trace;
}

LruKPolicy MakeLru2(VictimIndex index, size_t resident) {
  return LruKPolicy(LruKOptions{
      .k = 2, .capacity_hint = resident, .victim_index = index});
}

struct IndexCell {
  VictimIndex index;
  size_t resident = 0;
  Spread ns_per_ref;
  // Median throughput, 1e9 / median ns_per_ref.
  double ops_per_sec = 0.0;
};

// One timed run on a freshly built LRU-2; returns ns per reference.
double TimeIndex(VictimIndex index, size_t resident,
                 const std::vector<PageId>& trace, uint64_t ops) {
  LruKPolicy p = MakeLru2(index, resident);
  return TimeSteps(p, trace, resident, ops);
}

// Replays `trace` and returns every Evict() result in order. Both index
// structures must produce byte-identical sequences (the lazy heap's
// staleness is an implementation detail, never a behaviour change).
std::vector<PageId> VictimSequence(VictimIndex index, size_t resident,
                                   const std::vector<PageId>& trace) {
  LruKPolicy p = MakeLru2(index, resident);
  std::vector<PageId> victims;
  for (PageId page : trace) {
    if (p.IsResident(page)) {
      p.RecordAccess(page, AccessType::kRead);
    } else {
      if (p.ResidentCount() == resident) {
        auto victim = p.Evict();
        LRUK_ASSERT(victim.has_value(), "full pool failed to evict");
        victims.push_back(*victim);
      }
      p.Admit(page, AccessType::kRead);
    }
  }
  return victims;
}

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<CatalogRow>& catalog,
               const std::vector<IndexCell>& cells, bool sequences_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_policy_overhead\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f,
               ",\n  \"repetitions\": %d,\n  \"catalog_capacity\": %zu,\n"
               "  \"catalog\": [\n",
               kRepetitions, kCatalogCapacity);
  for (size_t i = 0; i < catalog.size(); ++i) {
    const Spread& s = catalog[i].ns_per_ref;
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"ns_per_ref\": %.1f, "
                 "\"ns_per_ref_min\": %.1f, \"ns_per_ref_max\": %.1f}%s\n",
                 catalog[i].name.c_str(), s.median, s.min, s.max,
                 i + 1 < catalog.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"index_cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const IndexCell& c = cells[i];
    std::fprintf(f,
                 "    {\"victim_index\": \"%s\", \"resident\": %zu, "
                 "\"ops_per_sec\": %.1f, \"ns_per_ref\": %.1f, "
                 "\"ns_per_ref_min\": %.1f, \"ns_per_ref_max\": %.1f}%s\n",
                 IndexName(c.index), c.resident, c.ops_per_sec,
                 c.ns_per_ref.median, c.ns_per_ref.min, c.ns_per_ref.max,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"victim_sequences_identical\": %s\n  }\n}\n",
               sequences_ok ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace lruk

int main(int argc, char** argv) {
  using namespace lruk;

  const char* json_path = nullptr;
  bool quick = false;
  BenchProvenance provenance;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (ParseProvenanceFlag(argc, argv, &i, &provenance)) {
      // consumed
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json <path>] [--git-sha <sha>] "
                   "[--build-type <type>] [--sanitizer <name>]\n",
                   argv[0]);
      return 2;
    }
  }

  const uint64_t catalog_ops = quick ? 1 << 16 : 1 << 20;
  const uint64_t index_ops = quick ? 1 << 17 : 1 << 21;
  const size_t diff_len = quick ? 1 << 16 : 1 << 18;
  const std::vector<size_t> resident_sizes = {512, 2048};
  const std::vector<VictimIndex> modes = {VictimIndex::kLazyHeap,
                                         VictimIndex::kLinear};

  // --- Catalog sweep ---
  std::printf(
      "Policy bookkeeping overhead: Zipfian 80-20, %zu frames, "
      "hit-or-admit step, median of %d runs\n\n",
      kCatalogCapacity, kRepetitions);
  std::vector<PageId> zipf = ZipfTrace(1 << 16);
  std::vector<CatalogRow> catalog;
  PolicyConfig lru2_linear = PolicyConfig::LruK(2);
  lru2_linear.lru_k.victim_index = VictimIndex::kLinear;
  // The third tuple field divides the timed op count: the O(n) linear scan
  // is ~100x slower per reference, and timing it for the full budget would
  // dominate the bench's wall clock without improving the estimate.
  const std::vector<std::tuple<std::string, PolicyConfig, uint64_t>>
      entries = {
          {"LRU", PolicyConfig::Lru(), 1},
          {"LRU-2", PolicyConfig::LruK(2), 1},
          {"LRU-2/linear", lru2_linear, 32},
          {"LRU-3", PolicyConfig::LruK(3), 1},
          {"LRU-2 CRP=16", PolicyConfig::LruK(2, /*crp=*/16), 1},
          {"LFU", PolicyConfig::Lfu(), 1},
          {"FIFO", PolicyConfig::Of(PolicyKind::kFifo), 1},
          {"CLOCK", PolicyConfig::Of(PolicyKind::kClock), 1},
          {"GCLOCK", PolicyConfig::Of(PolicyKind::kGClock), 1},
          {"MRU", PolicyConfig::Of(PolicyKind::kMru), 1},
          {"RANDOM", PolicyConfig::Of(PolicyKind::kRandom), 1},
          {"2Q", PolicyConfig::TwoQ(), 1},
          {"ARC", PolicyConfig::Arc(), 1},
      };
  // Repetitions go round-robin over the rows, so drift in the host's load
  // or in the allocator's state falls on every row alike.
  std::vector<std::vector<double>> samples(entries.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (size_t i = 0; i < entries.size(); ++i) {
      const auto& [label, config, divisor] = entries[i];
      samples[i].push_back(
          TimeCatalogPolicy(config, zipf, catalog_ops / divisor));
    }
  }
  AsciiTable catalog_table({"policy", "ns/ref", "min", "max"});
  for (size_t i = 0; i < entries.size(); ++i) {
    const CatalogRow& row = catalog.emplace_back(
        CatalogRow{std::get<0>(entries[i]), SpreadOf(samples[i])});
    catalog_table.AddRow({row.name, AsciiTable::Fixed(row.ns_per_ref.median, 1),
                          AsciiTable::Fixed(row.ns_per_ref.min, 1),
                          AsciiTable::Fixed(row.ns_per_ref.max, 1)});
  }
  catalog_table.Print();
  catalog_table.MaybeWriteCsvFromEnv("micro_policy_overhead_catalog");

  // --- Victim-index differential + grid ---
  std::printf(
      "\nLRU-2 victim-index structures: 95%% hot / 5%% cold uniform "
      "stream, median of %d runs\n\n",
      kRepetitions);
  bool sequences_ok = true;
  std::vector<IndexCell> cells;
  AsciiTable grid({"victim_index", "resident", "ops/sec", "ns/ref", "min",
                   "max"});
  for (size_t resident : resident_sizes) {
    std::vector<PageId> diff_trace =
        IndexTrace(resident, diff_len, /*seed=*/0xD1FF + resident);
    std::vector<PageId> reference =
        VictimSequence(VictimIndex::kLazyHeap, resident, diff_trace);
    std::vector<PageId> linear =
        VictimSequence(VictimIndex::kLinear, resident, diff_trace);
    if (linear != reference) {
      sequences_ok = false;
      std::printf("victim sequence DIVERGED: linear vs lazy_heap at "
                  "resident=%zu (%zu vs %zu evictions)\n",
                  resident, linear.size(), reference.size());
    }

    std::vector<PageId> trace =
        IndexTrace(resident, 1 << 18, /*seed=*/0xBEEF + resident);
    std::vector<std::vector<double>> mode_samples(modes.size());
    for (int rep = 0; rep < kRepetitions; ++rep) {
      for (size_t m = 0; m < modes.size(); ++m) {
        // Same wall-clock reasoning as the catalog: the O(n) scan's ns/ref
        // estimate converges with far fewer references.
        uint64_t ops =
            modes[m] == VictimIndex::kLinear ? index_ops / 8 : index_ops;
        mode_samples[m].push_back(TimeIndex(modes[m], resident, trace, ops));
      }
    }
    for (size_t m = 0; m < modes.size(); ++m) {
      IndexCell& c = cells.emplace_back(
          IndexCell{modes[m], resident, SpreadOf(mode_samples[m])});
      c.ops_per_sec = 1e9 / c.ns_per_ref.median;
      grid.AddRow({IndexName(c.index), AsciiTable::Integer(c.resident),
                   AsciiTable::Integer(static_cast<uint64_t>(c.ops_per_sec)),
                   AsciiTable::Fixed(c.ns_per_ref.median, 1),
                   AsciiTable::Fixed(c.ns_per_ref.min, 1),
                   AsciiTable::Fixed(c.ns_per_ref.max, 1)});
    }
  }
  grid.Print();
  grid.MaybeWriteCsvFromEnv("micro_policy_overhead_index");

  std::printf("\nshape: victim sequences identical across "
              "lazy_heap/linear: %s\n",
              sequences_ok ? "yes" : "NO");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, catalog, cells, sequences_ok);
    std::printf("wrote %s\n", json_path);
  }
  return sequences_ok ? 0 : 1;
}
