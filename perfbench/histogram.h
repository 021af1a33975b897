// Fixed-size log-linear latency histogram for the end-to-end driver.
//
// Values are nanoseconds. Each power-of-two range is split into 64 linear
// sub-buckets, so a bucket is at most 1/64 (~1.6%) of its value wide, and
// quantiles interpolate linearly inside the bucket that holds the rank.
// The bucket array is part of the object: recording never allocates, so a
// histogram created before set-up adds nothing to the measured phase's
// memory or time beyond one increment.

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Largest recordable exponent: 2^41 ns is about 37 minutes.
  static constexpr int kMaxExp = 41;
  static constexpr size_t kBuckets = (kMaxExp - kSubBits + 2) * kSub;

  void Record(int64_t ns) {
    uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    ++counts_[Index(v)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  void Reset() {
    counts_.fill(0);
    count_ = 0;
  }

  uint64_t count() const { return count_; }

  // Value at quantile q in [0, 1], in ns; 0 when empty. The rank q*(n-1)
  // is located in its bucket and interpolated between the bucket bounds.
  double QuantileNs(double q) const {
    if (count_ == 0) return 0.0;
    double rank = q * static_cast<double>(count_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) > rank) {
        double lo = static_cast<double>(LowerBound(i));
        double width = static_cast<double>(LowerBound(i + 1)) - lo;
        double within = (rank - static_cast<double>(seen) + 0.5) /
                        static_cast<double>(c);
        return lo + width * within;
      }
      seen += c;
    }
    return static_cast<double>(LowerBound(kBuckets - 1));
  }

  // Name of the highest percentile with at least ten samples beyond it
  // ("p99.9", "p99", "p90", "p50"), and its quantile.
  static const char* TailName(uint64_t n, double* q) {
    if (n >= 10000) { *q = 0.999; return "p99.9"; }
    if (n >= 1000) { *q = 0.99; return "p99"; }
    if (n >= 100) { *q = 0.90; return "p90"; }
    *q = 0.5;
    return "p50";
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int exp = 63 - std::countl_zero(v);
    if (exp > kMaxExp) return kBuckets - 1;
    uint64_t sub = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<size_t>((exp - kSubBits + 1) * kSub + sub);
  }

  static uint64_t LowerBound(size_t index) {
    if (index < kSub) return index;
    uint64_t group = index / kSub;  // >= 1
    uint64_t sub = index % kSub;
    int exp = static_cast<int>(group) + kSubBits - 1;
    return (uint64_t{1} << exp) + (sub << (exp - kSubBits));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
