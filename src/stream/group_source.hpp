// GroupSource: where the renderer gets a voxel group's Gaussians from.
//
// The staged pipeline (core/group_pipeline.hpp) consumes voxel groups — the
// residents of one dense voxel, decoded to full Gaussians — but does not
// care whether they live in a fully-resident prepared scene or are paged in
// from an on-disk asset store (stream/asset_store.hpp) through a residency
// cache. This interface is that seam:
//
//   ResidentGroupSource — wraps a prepared StreamingScene; acquire() is a
//     pointer view into the scene's grouped columns (group_columns() at
//     group_offset(v)), no copies, no bookkeeping. This is the implicit
//     source every pre-existing call site uses.
//   StreamingLoader (streaming_loader.hpp) — the one out-of-core source,
//     for a single viewer and for every serve session alike: it fetches
//     and decodes groups on demand through a ResidencyCache under a byte
//     budget and prefetches ahead of the camera.
//
// Contract: acquire() may be called concurrently from any pool worker; the
// returned view stays valid until the matching release() (the loader pins
// the group in its cache in between). begin_frame()/end_frame() bracket
// one rendered frame: the source learns the camera, the caller's expected
// inter-frame motion envelope, and the FramePlan's candidate voxels —
// everything a prefetcher needs to fetch ahead and everything a cache
// needs to pin the in-flight working set.
#pragma once

#include <span>

#include "core/streaming_renderer.hpp"
#include "core/streaming_trace.hpp"
#include "gs/camera.hpp"
#include "gs/gaussian_soa.hpp"
#include "voxel/grid.hpp"

namespace sgs::stream {

// Read-only view of one voxel group's decoded residents.
//
// `model_indices[k]` is resident k's index in the original model (stats and
// violator collection use it). Parameters live as SoA columns
// (gs::GaussianColumns): the group is the contiguous record slice
// [first, first + size()) of `cols`, in resident order — a resident scene
// points into its prebuilt per-group column arena, a cache entry points at
// its own decoded columns with first == 0. The batched kernels
// (gs/kernels.hpp) consume (cols, first, size()) directly; gaussian() is the
// AoS escape hatch for non-hot-path callers.
struct GroupView {
  std::span<const std::uint32_t> model_indices;
  const gs::GaussianColumns* cols = nullptr;
  std::size_t first = 0;

  std::size_t size() const { return model_indices.size(); }
  gs::Gaussian gaussian(std::size_t k) const {
    return cols->gaussian(first + k);
  }
  float max_scale(std::size_t k) const { return cols->max_scale[first + k]; }
};

// Sentinel for "no demand-fetch deadline" (see core/streaming_trace.hpp).
using core::kNoFetchDeadline;

// What the frame driver knows when a frame starts; prefetchers rank
// non-resident groups against the camera inflated by the motion envelope.
struct FrameIntent {
  const gs::Camera* camera = nullptr;
  // Expected camera drift before the *next* plan rebuild (the sequence
  // renderer's reuse envelope). Zero means single-frame rendering.
  float motion_translation = 0.0f;
  float motion_rotation_rad = 0.0f;
};

class GroupSource {
 public:
  virtual ~GroupSource() = default;

  // Brackets one frame. `plan_voxels` are the FramePlan's candidate voxels
  // (sorted, unique): a cache pins them against eviction for the duration
  // of the frame, a prefetcher seeds its ranking with them. Default: no-op.
  virtual void begin_frame(const FrameIntent& intent,
                           std::span<const voxel::DenseVoxelId> plan_voxels);
  virtual void end_frame();

  // Group data for dense voxel `v`; valid until release(v) from the same
  // caller. Thread-safe.
  virtual GroupView acquire(voxel::DenseVoxelId v) = 0;
  virtual void release(voxel::DenseVoxelId v) = 0;

  // Cumulative cache/fetch counters since construction (all-zero for
  // resident sources). The frame driver diffs snapshots around a frame to
  // fill StreamingTrace::cache.
  virtual core::StreamCacheStats stats() const;
};

// The fully-resident path: views into a prepared StreamingScene. acquire
// and release are trivially reentrant and frame brackets are no-ops.
class ResidentGroupSource final : public GroupSource {
 public:
  explicit ResidentGroupSource(const core::StreamingScene& scene);

  GroupView acquire(voxel::DenseVoxelId v) override;
  void release(voxel::DenseVoxelId) override {}

 private:
  const core::StreamingScene* scene_;
};

}  // namespace sgs::stream
