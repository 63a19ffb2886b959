// Fixed-size log-bucketed histogram of millisecond latencies, so a run
// keeps constant memory however many samples it takes (the benchmark's
// own bookkeeping must not show up in peak_mem_mb).

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyHistogram {
 public:
  /// Buckets grow by 1% from kMinMs, so a percentile is within 1% of
  /// the exact sample value; values outside the range are clamped.
  static constexpr double kMinMs = 1e-4;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2200;  // up to ~3.3e5 ms

  void Add(double ms) {
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
    ++buckets_[Index(ms)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    if (buckets_.empty()) buckets_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  /// Empties the histogram and frees its buckets.
  void Clear() {
    std::vector<std::uint64_t>().swap(buckets_);
    count_ = 0;
  }

  std::uint64_t count() const { return count_; }

  /// Linear-rank percentile (q in [0, 1]) at the matching bucket's
  /// geometric midpoint; 0 when empty.
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return kMinMs * std::pow(kGrowth, i + 0.5);
    }
    return kMinMs * std::pow(kGrowth, kBuckets - 0.5);
  }

 private:
  static std::size_t Index(double ms) {
    if (!(ms > kMinMs)) return 0;
    const double index = std::log(ms / kMinMs) / std::log(kGrowth);
    return index >= kBuckets - 1 ? kBuckets - 1
                                 : static_cast<std::size_t>(index);
  }

  std::vector<std::uint64_t> buckets_;  // allocated on first Add
  std::uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
