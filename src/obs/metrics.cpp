#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace sgs::obs {

std::uint64_t LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      const std::uint64_t ub = bucket_upper_bound(b);
      return std::min(max_, std::max(min_, ub));
    }
  }
  return max_;
}

}  // namespace sgs::obs
