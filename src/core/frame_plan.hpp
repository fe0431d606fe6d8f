// Per-frame VSU voxel table: voxel -> pixel-group binning (paper Sec. IV-B).
//
// Each non-empty voxel's eight corners are projected once with the same
// conservative bound the coarse filter uses; the voxel becomes a rendering
// candidate for every group its (margin-padded) screen bbox touches. Sampled
// rays in the VSU stage only provide *ordering* edges — discovery is complete
// regardless of the ray stride, so no pixel can see a Gaussian whose voxel
// was never streamed.
//
// The plan is a frame-level object so sequence rendering can reuse it across
// frames: a plan built with a generous margin stays a usable binning while
// the camera moves a little (see reusable_for), which skips the per-frame
// table rebuild entirely — the first genuinely multi-frame reuse in the
// pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "gs/camera.hpp"
#include "voxel/grid.hpp"

namespace sgs::core {

class FramePlan {
 public:
  // Bins every non-empty voxel of `grid` into the pixel groups of `camera`'s
  // image. `margin_px` pads each voxel's projected bbox: the renderer needs
  // 1 px (rounding at group borders); plans built for reuse pass a larger
  // margin so small camera motion keeps the binning usable. One serial
  // pass in ascending voxel id on the calling thread (no pool job), so every
  // candidate list and the working set come out sorted by construction.
  static FramePlan build(const voxel::VoxelGrid& grid, const gs::Camera& camera,
                         int group_size, float margin_px = 1.0f);

  // build() plus wall-clock build time: `plan_ns` receives the elapsed
  // nanoseconds when `timed`, 0 otherwise. Shared by the single-frame
  // renderer and the sequence renderer so the two paths measure plan time
  // identically.
  static FramePlan build_timed(const voxel::VoxelGrid& grid,
                               const gs::Camera& camera, int group_size,
                               float margin_px, bool timed,
                               std::uint64_t& plan_ns);

  int group_size() const { return group_size_; }
  int groups_x() const { return groups_x_; }
  int groups_y() const { return groups_y_; }
  std::size_t group_count() const { return candidates_.size(); }
  float margin_px() const { return margin_px_; }
  const gs::Camera& camera() const { return camera_; }

  // Sorted dense voxel IDs that may affect the given group.
  const std::vector<voxel::DenseVoxelId>& candidates(std::size_t group) const {
    return candidates_[group];
  }

  // Sorted union of every group's candidates — the voxels binned into at
  // least one group, recorded by build() in the same pass: the plan's
  // predicted voxel working set. Out-of-core sources pin these against
  // eviction for the duration of a frame and seed prefetch ranking with
  // them. (Rays of a *reused* plan can still discover voxels outside this
  // set; those fetch on demand.)
  const std::vector<voxel::DenseVoxelId>& working_set() const {
    return working_set_;
  }

  // Table-build cost charged to the VSU (one conservative projection per
  // non-empty voxel). Zero table steps are charged for frames that reuse a
  // cached plan.
  std::uint64_t voxel_table_steps() const { return voxel_table_steps_; }

  // True when `cam` has this plan's image geometry: same size and
  // intrinsics (fx, fy, cx, cy). The pose may differ.
  bool same_image_geometry(const gs::Camera& cam) const;

  // True when this plan is still usable for `cam`: identical image geometry
  // (size + intrinsics), the camera translated / rotated less than the
  // given bounds since the plan was built, AND the depth-independent
  // rotation drift (focal * angle pixels) fits inside this plan's binning
  // margin. Translation drift scales with 1/depth, so that part of the
  // approximation remains the caller's threshold-vs-margin trade-off.
  bool reusable_for(const gs::Camera& cam, float max_translation,
                    float max_rotation_rad) const;

 private:
  gs::Camera camera_;
  int group_size_ = 64;
  int groups_x_ = 0;
  int groups_y_ = 0;
  float margin_px_ = 1.0f;
  std::uint64_t voxel_table_steps_ = 0;
  std::vector<std::vector<voxel::DenseVoxelId>> candidates_;
  std::vector<voxel::DenseVoxelId> working_set_;
};

}  // namespace sgs::core
