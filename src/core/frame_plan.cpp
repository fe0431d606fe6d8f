#include "core/frame_plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/streaming_trace.hpp"
#include "gs/projection.hpp"

namespace sgs::core {

FramePlan FramePlan::build_timed(const voxel::VoxelGrid& grid,
                                 const gs::Camera& camera, int group_size,
                                 float margin_px, bool timed,
                                 std::uint64_t& plan_ns) {
  const std::uint64_t t0 = timed ? stage_clock_ns() : 0;
  FramePlan plan = build(grid, camera, group_size, margin_px);
  plan_ns = timed ? stage_clock_ns() - t0 : 0;
  return plan;
}

FramePlan FramePlan::build(const voxel::VoxelGrid& grid,
                           const gs::Camera& camera, int group_size,
                           float margin_px) {
  FramePlan plan;
  plan.camera_ = camera;
  plan.group_size_ = group_size;
  plan.margin_px_ = margin_px;

  const int width = camera.width();
  const int height = camera.height();
  const int gsz = group_size;
  const int groups_x = (width + gsz - 1) / gsz;
  const int groups_y = (height + gsz - 1) / gsz;
  plan.groups_x_ = groups_x;
  plan.groups_y_ = groups_y;
  const std::size_t group_count = static_cast<std::size_t>(groups_x) * groups_y;
  plan.candidates_.resize(group_count);
  plan.voxel_table_steps_ = static_cast<std::uint64_t>(grid.voxel_count());

  // One serial pass in ascending voxel id, like the VSU's fixed table-build
  // order: every candidate list, and the working set, come out sorted.
  const std::int32_t n_vox = grid.voxel_count();
  for (voxel::DenseVoxelId v = 0; v < n_vox; ++v) {
    // Project the 8 voxel corners: for a convex box fully in front of the
    // near plane, the hull of the projected corners bounds the box's
    // projection exactly. The (rare) near-plane straddle falls back to
    // binning everywhere; boxes fully behind are skipped.
    const Vec3f lo = grid.voxel_min_corner(v);
    const float vs = grid.config().voxel_size;
    // Corners barely in front of the camera plane still project to finite
    // (very large, hence conservative) coordinates; only corners behind
    // this epsilon force the unbounded fallback. Gaussians nearer than the
    // real near clip are culled by the filters anyway.
    constexpr float kBinEps = 0.01f;
    int behind_near = 0;   // corners behind the true near plane
    int behind_eps = 0;    // corners with unusable projections
    float px0 = 1e30f, py0 = 1e30f, px1 = -1e30f, py1 = -1e30f;
    for (int corner = 0; corner < 8; ++corner) {
      const Vec3f p{lo.x + ((corner & 1) ? vs : 0.0f),
                    lo.y + ((corner & 2) ? vs : 0.0f),
                    lo.z + ((corner & 4) ? vs : 0.0f)};
      const Vec3f p_cam = camera.world_to_camera(p);
      if (p_cam.z <= gs::kNearClip) ++behind_near;
      if (p_cam.z <= kBinEps) {
        ++behind_eps;
        continue;
      }
      const Vec2f uv = camera.project_cam(p_cam);
      px0 = std::min(px0, uv.x);
      py0 = std::min(py0, uv.y);
      px1 = std::max(px1, uv.x);
      py1 = std::max(py1, uv.y);
    }
    if (behind_near == 8) continue;  // fully behind the near plane
    int gx0, gx1, gy0, gy1;
    if (behind_eps > 0) {
      // Crosses the camera plane itself: projection unbounded.
      gx0 = 0; gy0 = 0; gx1 = groups_x - 1; gy1 = groups_y - 1;
    } else {
      // The margin absorbs rounding at group borders (1 px) and, for plans
      // built for reuse, the projection drift of small camera motion.
      gx0 = std::max(0, static_cast<int>((px0 - margin_px) /
                                         static_cast<float>(gsz)));
      gy0 = std::max(0, static_cast<int>((py0 - margin_px) /
                                         static_cast<float>(gsz)));
      gx1 = std::min(groups_x - 1, static_cast<int>((px1 + margin_px) /
                                                    static_cast<float>(gsz)));
      gy1 = std::min(groups_y - 1, static_cast<int>((py1 + margin_px) /
                                                    static_cast<float>(gsz)));
    }
    if (gx0 > gx1 || gy0 > gy1) continue;  // fully off-screen
    for (int gy = gy0; gy <= gy1; ++gy) {
      for (int gx = gx0; gx <= gx1; ++gx) {
        plan.candidates_[static_cast<std::size_t>(gy) * groups_x + gx]
            .push_back(v);
      }
    }
    plan.working_set_.push_back(v);
  }

  return plan;
}

bool FramePlan::same_image_geometry(const gs::Camera& cam) const {
  return cam.width() == camera_.width() && cam.height() == camera_.height() &&
         cam.fx() == camera_.fx() && cam.fy() == camera_.fy() &&
         cam.cx() == camera_.cx() && cam.cy() == camera_.cy();
}

bool FramePlan::reusable_for(const gs::Camera& cam, float max_translation,
                             float max_rotation_rad) const {
  if (!same_image_geometry(cam)) return false;
  if ((cam.position() - camera_.position()).norm() > max_translation) {
    return false;
  }
  // Relative rotation angle from trace(R_new * R_old^T) = 1 + 2 cos(theta).
  const Mat3f rel = cam.rotation() * camera_.rotation().transposed();
  const float trace = rel.m[0][0] + rel.m[1][1] + rel.m[2][2];
  const float c = std::clamp((trace - 1.0f) * 0.5f, -1.0f, 1.0f);
  const float angle = std::acos(c);
  if (angle > max_rotation_rad) return false;
  // Rotation shifts every projection by ~focal * angle pixels regardless of
  // depth, so the plan can bound that drift itself: reuse only while the
  // binning margin absorbs it. (Translation drift scales with 1/depth and
  // stays the caller's threshold trade-off.)
  return cam.focal_max() * angle <= margin_px_;
}

}  // namespace sgs::core
