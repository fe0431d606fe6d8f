// Log-scale latency histogram: O(1) memory per series, mergeable, with a
// bounded-error nearest-rank percentile. SessionReport / ServerReport keep
// their frame and queue-wait latencies in it.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace sgs::obs {

// Fixed-bucket log-linear histogram over unsigned 64-bit samples (typically
// nanoseconds). HdrHistogram-style bucketing: values below 2*kSubBuckets
// land in exact unit buckets, larger values keep kPrecisionBits significant
// bits, so any reported quantile overstates its sample by at most
// 2^-kPrecisionBits = 12.5% (and never understates it). ~500 buckets cover
// the full u64 range; merging is bucket-wise addition, which is what makes
// per-session recording and deterministic aggregation cheap.
class LogHistogram {
 public:
  static constexpr int kPrecisionBits = 3;
  static constexpr int kSubBuckets = 1 << kPrecisionBits;  // 8
  // Highest bucket index for v = 2^64-1: e = 64 - 4 = 60 -> (60+1)*8 + 7.
  static constexpr int kBucketCount = 61 * kSubBuckets + kSubBuckets;  // 496

  static int bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<int>(v);
    const int e = std::bit_width(v) - (kPrecisionBits + 1);
    return (e + 1) * kSubBuckets + static_cast<int>((v >> e) - kSubBuckets);
  }

  // Largest value mapping to bucket b — the value percentile() reports.
  static std::uint64_t bucket_upper_bound(int b) {
    if (b < 2 * kSubBuckets) return static_cast<std::uint64_t>(b);
    const int e = b / kSubBuckets - 1;
    const std::uint64_t m =
        static_cast<std::uint64_t>(b % kSubBuckets) + kSubBuckets;
    // For the top bucket (m+1)<<e wraps to 0 and the -1 yields 2^64-1,
    // which is exactly that bucket's upper bound.
    return ((m + 1) << e) - 1;
  }

  void record(std::uint64_t v) {
    ++buckets_[static_cast<std::size_t>(bucket_index(v))];
    ++count_;
    sum_ += v;
    min_ = v < min_ ? v : min_;
    max_ = v > max_ ? v : max_;
  }

  void merge(const LogHistogram& o) {
    for (int b = 0; b < kBucketCount; ++b) {
      buckets_[static_cast<std::size_t>(b)] +=
          o.buckets_[static_cast<std::size_t>(b)];
    }
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = o.min_ < min_ ? o.min_ : min_;
    max_ = o.max_ > max_ ? o.max_ : max_;
  }

  // Splice externally-accumulated cells in (e.g. a histogram recorded
  // into atomic buckets, copied out into one plain histogram).
  void add_bucket_count(int b, std::uint64_t c) {
    buckets_[static_cast<std::size_t>(b)] += c;
  }
  void add_aggregates(std::uint64_t count, std::uint64_t sum,
                      std::uint64_t min, std::uint64_t max) {
    count_ += count;
    sum_ += sum;
    min_ = min < min_ ? min : min_;
    max_ = max > max_ ? max : max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }

  // Nearest-rank percentile (q in [0,1]): the upper bound of the bucket
  // holding the rank-ceil(q*count) sample, clamped to the observed
  // [min, max] so exact extremes stay exact. Returns 0 on an empty
  // histogram.
  std::uint64_t percentile(double q) const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace sgs::obs
