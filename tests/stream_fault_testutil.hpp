// Shared store helpers for the streaming tests (test_stream.cpp,
// test_serve.cpp, test_network.cpp): fault injection and a checked read.
// The on-disk VQ record layout this encodes — pos3 + opacity floats (16
// bytes), then the scale codebook index u16 — lives HERE and nowhere else
// in the test tree, so a layout change cannot leave one suite silently
// poisoning the wrong byte. FaultInjectingBackend is the transport-level counterpart: it
// injects faults per byte-range on the FetchBackend seam instead of
// corrupting the file, so a test can target one group's transfer phase
// without touching any other reader of the store.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stream/asset_store.hpp"
#include "stream/fetch_backend.hpp"

namespace sgs::stream::faulttest {

// Copies src over dst (pristine bytes back in place, or a corpus variant).
inline void copy_file(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  std::ofstream out(dst, std::ios::binary);
  out << in.rdbuf();
}

// Overwrites the scale codebook index of group v's first tier-`tier`
// record with 0xFFFF — out of every test codebook's range, so the decode
// fails with a typed kCorruptPayload. VQ stores only.
inline void poison_vq_group(const std::string& path, const AssetStore& store,
                            voxel::DenseVoxelId v, int tier = 0) {
  const TierExtent& e = store.tier_extent(v, tier);
  ASSERT_GT(e.count, 0u);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(f));
  f.seekp(static_cast<std::streamoff>(e.offset + 16));
  const std::uint16_t bad = 0xFFFF;
  f.write(reinterpret_cast<const char*>(&bad), 2);
  ASSERT_TRUE(static_cast<bool>(f));
}

// The group with the most residents: on an origin-centered scene with an
// origin-orbiting camera this is essentially guaranteed to be streamed.
inline voxel::DenseVoxelId densest_group(const AssetStore& store) {
  voxel::DenseVoxelId best = 0;
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    if (store.tier_extent(v, 0).count > store.tier_extent(best, 0).count) {
      best = v;
    }
  }
  return best;
}

// Reads group v at `tier` from a store the test expects to be healthy:
// a read error fails the test and yields an empty group.
inline DecodedGroup read_ok(const AssetStore& store, voxel::DenseVoxelId v,
                            int tier = 0) {
  StreamResult<DecodedGroup> r = store.read_group_checked(v, tier);
  EXPECT_TRUE(r.ok()) << r.error().to_string();
  return r.ok() ? r.take() : DecodedGroup{};
}

// Transport-level fault injection on the FetchBackend seam: arms faults
// against byte ranges of the store, so a test can fail exactly one group's
// (or one tier's) transfers — at any phase, open-time metadata included —
// without corrupting the file other readers share. Each armed range fires
// for a bounded number of overlapping requests, which makes retry/backoff
// counting exact: arm count = N, and the (N+1)-th transfer succeeds.
class FaultInjectingBackend final : public FetchBackend {
 public:
  enum class Fault : std::uint8_t {
    // The transfer is lost: kNetTimeout, origin never touched.
    kTimeout,
    // Half the requested bytes arrive, then kIoRead — the honest partial.
    kPartial,
    // The LYING backend: reports success but delivers only half the bytes.
    // Exists to prove the store's own length check catches a transport
    // that under-delivers without admitting it (kIoRead with group+tier,
    // never a decode error on the garbage tail).
    kShortRead,
  };

  explicit FaultInjectingBackend(std::shared_ptr<FetchBackend> origin)
      : origin_(std::move(origin)) {}

  // Arms `fault` for the next `count` read_range calls whose span overlaps
  // [lo, hi). Earlier-armed ranges win when several overlap one request.
  void fault_range(std::uint64_t lo, std::uint64_t hi, Fault fault,
                   int count = 1) {
    std::lock_guard<std::mutex> lk(mutex_);
    arms_.push_back(Arm{lo, hi, fault, count});
  }

  // Requests that hit an armed fault so far.
  std::uint64_t faults_fired() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return fired_;
  }

  StreamResult<FetchInfo> read_range(std::uint64_t offset,
                                     std::span<char> dst) override {
    const std::uint64_t want = dst.size();
    Fault fault = Fault::kTimeout;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ++stats_.requests;
      for (Arm& a : arms_) {
        if (a.remaining > 0 && offset < a.hi && offset + want > a.lo) {
          --a.remaining;
          ++fired_;
          fault = a.fault;
          hit = true;
          break;
        }
      }
    }
    if (!hit) {
      StreamResult<FetchInfo> r = origin_->read_range(offset, dst);
      std::lock_guard<std::mutex> lk(mutex_);
      if (r.ok()) {
        stats_.bytes += r.value().bytes;
        stats_.busy_ns += r.value().elapsed_ns;
      }
      return r;
    }
    if (fault == Fault::kTimeout) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++stats_.timeouts;
      return StreamError{StreamErrorKind::kNetTimeout, -1, -1,
                         "injected timeout at offset " +
                             std::to_string(offset)};
    }
    // kPartial and kShortRead both deliver a prefix...
    const std::uint64_t half = want / 2;
    if (half > 0) {
      StreamResult<FetchInfo> inner =
          origin_->read_range(offset, dst.subspan(0, half));
      if (!inner.ok()) return inner.take_error();
    }
    if (fault == Fault::kPartial) {
      std::lock_guard<std::mutex> lk(mutex_);
      ++stats_.partial_reads;
      return StreamError{StreamErrorKind::kIoRead, -1, -1,
                         "injected partial transfer: " +
                             std::to_string(half) + " of " +
                             std::to_string(want) + " bytes at offset " +
                             std::to_string(offset)};
    }
    // ...but kShortRead claims the transfer succeeded.
    return FetchInfo{half, 0};
  }

  std::uint64_t size() const override { return origin_->size(); }
  std::optional<StreamError> open_error() const override {
    return origin_->open_error();
  }
  std::string describe() const override {
    return "faulty(" + origin_->describe() + ")";
  }
  FetchBackendStats stats() const override {
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
  }

 private:
  struct Arm {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    Fault fault = Fault::kTimeout;
    int remaining = 0;
  };

  std::shared_ptr<FetchBackend> origin_;
  mutable std::mutex mutex_;
  std::vector<Arm> arms_;
  std::uint64_t fired_ = 0;
  FetchBackendStats stats_;
};

}  // namespace sgs::stream::faulttest
