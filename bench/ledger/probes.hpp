// Bench-side timing decorators for the traced replay. Each one wraps a seam
// the library already exposes (stream::FetchBackend, stream::GroupSource)
// and times the calls that cross it from outside, so the per-layer numbers
// need no instrumentation inside src/.
//
// Per-call timings go to lock-free count/sum/min/max + log-bucket
// accumulators rather than spans: acquire() runs on every pool worker many
// times per frame, and a span per call would overflow the trace rings.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/streaming_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/group_source.hpp"

namespace ledger {

// obs::LogHistogram's bucket layout over relaxed atomics, so concurrent
// callers record without sharing a lock.
class AtomicHistogram {
 public:
  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(sgs::obs::LogHistogram::bucket_index(v))]
        .fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t lo = min_.load(std::memory_order_relaxed);
    while (v < lo && !min_.compare_exchange_weak(lo, v)) {
    }
    std::uint64_t hi = max_.load(std::memory_order_relaxed);
    while (v > hi && !max_.compare_exchange_weak(hi, v)) {
    }
  }

  // Callers reset only while no recorder runs (between passes).
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<std::uint64_t>::max(),
               std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  sgs::obs::LogHistogram snapshot() const {
    sgs::obs::LogHistogram h;
    for (int b = 0; b < sgs::obs::LogHistogram::kBucketCount; ++b) {
      h.add_bucket_count(
          b, buckets_[static_cast<std::size_t>(b)].load(
                 std::memory_order_relaxed));
    }
    h.add_aggregates(count_.load(std::memory_order_relaxed),
                     sum_.load(std::memory_order_relaxed),
                     min_.load(std::memory_order_relaxed),
                     max_.load(std::memory_order_relaxed));
    return h;
  }

 private:
  std::array<std::atomic<std::uint64_t>, sgs::obs::LogHistogram::kBucketCount>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
};

// Times every read_range of the transport under an AssetStore.
class TimedBackend final : public sgs::stream::FetchBackend {
 public:
  explicit TimedBackend(std::shared_ptr<sgs::stream::FetchBackend> inner)
      : inner_(std::move(inner)) {}

  sgs::stream::StreamResult<sgs::stream::FetchInfo> read_range(
      std::uint64_t offset, std::span<char> dst) override {
    SGS_TRACE_SPAN("ledger", "read_range", "offset", offset, "bytes",
                   dst.size());
    const std::uint64_t t0 = sgs::core::stage_clock_ns();
    auto result = inner_->read_range(offset, dst);
    calls_.record(sgs::core::stage_clock_ns() - t0);
    bytes_.fetch_add(dst.size(), std::memory_order_relaxed);
    return result;
  }
  std::uint64_t size() const override { return inner_->size(); }
  std::optional<sgs::stream::StreamError> open_error() const override {
    return inner_->open_error();
  }
  std::string describe() const override {
    return "timed:" + inner_->describe();
  }
  sgs::stream::FetchBackendStats stats() const override {
    return inner_->stats();
  }

  // Drops what the store's open-time reads recorded, so the pass that
  // follows is measured alone.
  void reset() {
    calls_.reset();
    bytes_.store(0, std::memory_order_relaxed);
  }
  const AtomicHistogram& calls() const { return calls_; }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<sgs::stream::FetchBackend> inner_;
  AtomicHistogram calls_;
  std::atomic<std::uint64_t> bytes_{0};
};

// Times acquire() and begin_frame() of the source a renderer streams
// through. Pixels are unchanged: every call forwards as-is.
class TimedSource final : public sgs::stream::GroupSource {
 public:
  explicit TimedSource(sgs::stream::GroupSource& inner) : inner_(&inner) {}

  void begin_frame(
      const sgs::stream::FrameIntent& intent,
      std::span<const sgs::voxel::DenseVoxelId> plan_voxels) override {
    SGS_TRACE_SPAN("ledger", "begin_frame");
    const std::uint64_t t0 = sgs::core::stage_clock_ns();
    inner_->begin_frame(intent, plan_voxels);
    begin_frame_.record(sgs::core::stage_clock_ns() - t0);
  }
  void end_frame() override {
    SGS_TRACE_SPAN("ledger", "end_frame");
    inner_->end_frame();
  }
  sgs::stream::GroupView acquire(sgs::voxel::DenseVoxelId v) override {
    const std::uint64_t t0 = sgs::core::stage_clock_ns();
    sgs::stream::GroupView view = inner_->acquire(v);
    acquire_.record(sgs::core::stage_clock_ns() - t0);
    return view;
  }
  void release(sgs::voxel::DenseVoxelId v) override { inner_->release(v); }
  sgs::core::StreamCacheStats stats() const override { return inner_->stats(); }

  const AtomicHistogram& acquires() const { return acquire_; }
  const AtomicHistogram& begin_frames() const { return begin_frame_; }

 private:
  sgs::stream::GroupSource* inner_;
  AtomicHistogram acquire_;
  AtomicHistogram begin_frame_;
};

}  // namespace ledger
