#include "stream/lod_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gs/projection.hpp"

namespace sgs::stream {

namespace {

// Projected pixel extent of the group's voxel edge at its nearest depth,
// inflated by the caller's motion envelope exactly like the prefetch
// ranking: the tier must stay right while the camera drifts within the
// plan-reuse window.
float group_footprint_px(const AssetStore& store, const FrameIntent& intent,
                         voxel::DenseVoxelId v) {
  const AssetDirEntry& e = store.entry(v);
  const gs::Camera& cam = *intent.camera;
  const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
  const float radius = (e.aabb_max - e.aabb_min).norm() * 0.5f;
  const float edge = e.aabb_max.x - e.aabb_min.x;  // voxels are cubes
  const Vec3f c_cam = cam.world_to_camera(center);
  const float trans_env = intent.motion_translation;
  const float near_z = std::max(c_cam.z - radius - trans_env, gs::kNearClip);
  return cam.focal_max() * edge / near_z;
}

}  // namespace

std::uint64_t abr_frame_budget_bytes(const LodPolicy& policy) {
  if (policy.abr_frame_budget_ns == 0 ||
      policy.link_bandwidth_bytes_per_sec <= 0.0) {
    return 0;
  }
  const double bytes = policy.link_bandwidth_bytes_per_sec * kAbrSafety *
                       static_cast<double>(policy.abr_frame_budget_ns) * 1e-9;
  // Clamp to >= 1 so an active term always constrains instead of rounding
  // down to "disabled".
  return bytes >= 1.0 ? static_cast<std::uint64_t>(bytes) : 1;
}

int select_group_tier(const AssetStore& store, const FrameIntent& intent,
                      voxel::DenseVoxelId v, const LodPolicy& policy) {
  if (policy.force_tier0 || intent.camera == nullptr) return 0;
  int store_max = store.tier_count() - 1;
  if (policy.reserve_coarse_tier && store_max > 0) --store_max;
  const int max_tier = std::clamp(policy.max_tier, 0, store_max);
  if (max_tier == 0) return 0;
  const float fp = group_footprint_px(store, intent, v);
  int tier = 0;
  if (fp < policy.footprint_full_px) tier = 1;
  if (fp < policy.footprint_half_px) tier = 2;
  return std::min(tier, max_tier);
}

TierSelection select_frame_tiers(
    const AssetStore& store, const FrameIntent& intent,
    std::span<const voxel::DenseVoxelId> plan_voxels,
    const LodPolicy& policy) {
  TierSelection sel;
  sel.tier_by_group.assign(static_cast<std::size_t>(store.group_count()), 0);
  if (plan_voxels.empty()) return sel;

  struct Candidate {
    float depth;
    voxel::DenseVoxelId id;
    int tier;
  };
  std::vector<Candidate> order;
  order.reserve(plan_voxels.size());
  for (const voxel::DenseVoxelId v : plan_voxels) {
    const AssetDirEntry& e = store.entry(v);
    const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
    const float depth = intent.camera != nullptr
                            ? (center - intent.camera->position()).norm()
                            : 0.0f;
    order.push_back({depth, v, select_group_tier(store, intent, v, policy)});
  }

  // Budget demotion walks near-to-far: near groups keep their footprint
  // tier (they dominate the image), far groups absorb the cut. The
  // estimate charges every group's tier payload as if it had to be fetched
  // — deliberately blind to residency, so selection stays a pure function
  // of the camera (see header).
  int store_max = store.tier_count() - 1;
  if (policy.reserve_coarse_tier && store_max > 0) --store_max;
  const int max_tier = std::clamp(policy.max_tier, 0, store_max);
  // Effective budget: the static byte target tightened by what the
  // estimated link can move before the frame deadline (the ABR term).
  // Either side may be absent (0 = unconstrained).
  const std::uint64_t static_budget = policy.frame_fetch_budget_bytes;
  const std::uint64_t abr_budget = abr_frame_budget_bytes(policy);
  std::uint64_t budget = static_budget;
  if (abr_budget > 0) {
    budget = budget == 0 ? abr_budget : std::min(budget, abr_budget);
  }
  if (budget > 0 && !policy.force_tier0 && max_tier > 0) {
    std::sort(order.begin(), order.end(), [](const Candidate& a,
                                             const Candidate& b) {
      return a.depth != b.depth ? a.depth < b.depth : a.id < b.id;
    });
    // Two accumulators walk the same near-to-far order: `est` against the
    // effective budget decides demotion; `est_static` replays what the
    // static budget alone would have done, so abr_demoted counts exactly
    // the demotions the throughput term is responsible for.
    std::uint64_t est = 0;
    std::uint64_t est_static = 0;
    bool over = false;
    bool over_static = false;
    for (Candidate& c : order) {
      const bool static_demotes = static_budget > 0 && over_static;
      const std::uint64_t tier_bytes = store.tier_extent(c.id, c.tier).bytes;
      if (static_budget > 0 && !over_static) {
        est_static += tier_bytes;
        if (est_static > static_budget) over_static = true;
      }
      if (!over) {
        est += tier_bytes;
        if (est > budget) over = true;
      } else if (c.tier < max_tier) {
        c.tier = max_tier;
        ++sel.demoted;
        if (!static_demotes) ++sel.abr_demoted;
      }
    }
  }

  for (const Candidate& c : order) {
    sel.tier_by_group[static_cast<std::size_t>(c.id)] =
        static_cast<std::uint8_t>(c.tier);
    ++sel.histogram[static_cast<std::size_t>(c.tier)];
  }
  return sel;
}

LodPolicy lod_policy_from_name(const std::string& name) {
  LodPolicy p;
  if (name == "off" || name == "l0") {
    p.force_tier0 = true;
  } else if (name == "quality") {
    p.footprint_full_px = 48.0f;
    p.footprint_half_px = 16.0f;
  } else if (name == "balanced") {
    // The LodPolicy{} defaults.
  } else if (name == "aggressive") {
    p.footprint_full_px = 192.0f;
    p.footprint_half_px = 96.0f;
  } else {
    throw std::invalid_argument("unknown LOD policy: " + name +
                                " (try off|quality|balanced|aggressive)");
  }
  return p;
}

}  // namespace sgs::stream
