// BandwidthEstimator: the measurement half of the ABR loop.
//
// An exponentially-weighted moving average of link throughput over
// *completed* transfers — failed or partial transfers never feed it, so a
// lossy link is estimated by what actually arrives. Each StreamingLoader —
// a single viewer's or a serve session's — owns one estimator; every
// demand fetch and prefetch that loader pays observes (bytes, elapsed_ns)
// here, and each begin_frame copies
// bandwidth_bytes_per_sec() into its LodPolicy's throughput term
// (lod_policy.hpp) before tier selection.
//
// Transfers with zero duration are skipped: an instantaneous transfer
// (MemoryBackend, a perfect simulated link) carries no throughput
// information, so a session on such a link keeps "no estimate" (0.0) and
// the ABR term stays inert — which is exactly the bit-exact default.
//
// Convergence: for a constant-rate link the estimate lands on the true
// rate with the first sample and stays there; after a rate step the error
// shrinks by (1 - alpha) per sample, so the estimate is within
// (1-alpha)^n of the step after n transfers. Thread-safe; observe() is
// called from render workers and the async prefetch lane concurrently.
#pragma once

#include <cstdint>
#include <mutex>

namespace sgs::stream {

class BandwidthEstimator {
 public:
  explicit BandwidthEstimator(double alpha = 0.25) : alpha_(alpha) {}

  // Records one completed transfer. No-op when bytes or elapsed_ns is 0.
  void observe(std::uint64_t bytes, std::uint64_t elapsed_ns) {
    if (bytes == 0 || elapsed_ns == 0) return;
    const double rate =
        static_cast<double>(bytes) * 1e9 / static_cast<double>(elapsed_ns);
    std::lock_guard<std::mutex> lk(mutex_);
    if (samples_ == 0) {
      ewma_bps_ = rate;
    } else {
      ewma_bps_ += alpha_ * (rate - ewma_bps_);
    }
    ++samples_;
  }

  // Estimated link throughput; 0.0 until the first completed transfer
  // ("no estimate" — the ABR term treats it as an unconstrained link).
  double bandwidth_bytes_per_sec() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return ewma_bps_;
  }

  std::uint64_t samples() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return samples_;
  }

 private:
  mutable std::mutex mutex_;
  double alpha_;
  double ewma_bps_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace sgs::stream
