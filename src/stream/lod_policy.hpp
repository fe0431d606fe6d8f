// LodPolicy: which payload tier each voxel group should stream at.
//
// A .sgsc v2 store carries up to kLodTierCount payload tiers per group
// (L0 full fidelity, L1/L2 importance-pruned — see asset_store.hpp). The
// policy maps a group's projected screen-space footprint to a requested
// tier: a group whose voxel spans many pixels needs every Gaussian, a
// group shrinking toward a dot does not. Selection is a *pure function* of
// (camera, policy, store) — it never reads cache residency — so a session's
// tier requests are deterministic and independent of who else shares the
// cache (the serve layer's "served == alone" reasoning depends on this).
//
// Budget-aware demotion: when frame_fetch_budget_bytes is set, plan groups
// are walked near-to-far and, once the worst-case fetch estimate of the
// tiers chosen so far exceeds the budget, every remaining (farther) group
// demotes to max_tier. The estimate deliberately charges every group as if
// it had to be fetched — residency would make selection depend on shared
// cache state. Frames that demoted at least one group below its footprint
// tier are "degraded" (ServerReport counts them per session).
//
// ABR (throughput) term: the bandwidth-adaptive half of demotion. A
// front-end that owns a BandwidthEstimator copies its current estimate
// into link_bandwidth_bytes_per_sec each frame before selection; with
// abr_frame_budget_ns set, the frame's effective byte budget becomes
// min(frame_fetch_budget_bytes, bandwidth * budget_ns * kAbrSafety) — the
// bytes the estimated link can actually move before the frame deadline.
// Demotions the ABR term forces *beyond* what the static budget alone
// would have are counted in TierSelection::abr_demoted. Selection stays a
// pure function of its inputs — the estimate is an explicit policy field,
// never read from shared state — but with ABR active the inputs include
// measured throughput, so cross-run bit-exactness holds only when the
// transfer schedule does (e.g. a deterministic SimulatedNetworkBackend).
// All defaults keep the term inert.
//
// force_tier0 is the golden-test switch: every request is L0, which makes
// out-of-core rendering bit-identical to resident rendering even on a
// multi-tier store.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stream/asset_store.hpp"
#include "stream/group_source.hpp"

namespace sgs::stream {

struct LodPolicy {
  // Footprint thresholds, in projected pixels of the voxel edge at the
  // group's nearest depth: >= full goes L0, >= half goes L1, below goes L2.
  float footprint_full_px = 96.0f;
  float footprint_half_px = 40.0f;
  // Lowest-fidelity tier the policy may request (further clamped by the
  // store's tier_count).
  int max_tier = kLodTierCount - 1;
  // Worst-case per-frame fetch-byte target for demotion; 0 disables.
  std::uint64_t frame_fetch_budget_bytes = 0;
  // Keep the store's coarsest tier out of deliberate selection: on a >1
  // tier store, adaptive requests clamp to tier_count - 2. Set when the
  // store was written with AssetStoreWriteOptions::with_coarse_floor —
  // there the last tier is a heavily-pruned fallback reserved for the
  // residency cache's always-resident floor, not a quality level a camera
  // should ever ask for on purpose.
  bool reserve_coarse_tier = false;
  // Request L0 everywhere (bit-exact out-of-core rendering).
  bool force_tier0 = false;

  // --- ABR throughput term (see the header comment) ---
  // Estimated link throughput, written by the owning front-end each frame
  // from its BandwidthEstimator. 0 = no estimate (term inert this frame).
  double link_bandwidth_bytes_per_sec = 0.0;
  // Time the frame's fetch traffic must fit into (the frame's fetch
  // deadline, typically); 0 disables the ABR term entirely.
  std::uint64_t abr_frame_budget_ns = 0;
};

// Headroom fraction of the estimated link the ABR budget may claim.
inline constexpr double kAbrSafety = 0.85;

// Bytes the estimated link can move within the policy's ABR window, or 0
// when the term is inactive (disabled, or no estimate yet). Shared by
// select_frame_tiers and the prefetch byte-budget clamps.
std::uint64_t abr_frame_budget_bytes(const LodPolicy& policy);

// Per-frame outcome of tier selection over a FramePlan's candidate set.
struct TierSelection {
  // Dense voxel id -> requested tier. Groups outside the plan request L0
  // (they are only touched by prefetch, which ranks them itself).
  std::vector<std::uint8_t> tier_by_group;
  // Plan groups per requested tier.
  std::array<std::uint32_t, kLodTierCount> histogram{};
  // Plan groups pushed below their footprint tier by the byte budget.
  std::uint32_t demoted = 0;
  // The subset of `demoted` forced by the ABR throughput term alone — the
  // static frame_fetch_budget_bytes would have kept their footprint tier.
  std::uint32_t abr_demoted = 0;

  // The tier an acquire of `v` should request under this selection; a
  // default-constructed (never-selected) instance requests L0 everywhere.
  int tier_of(voxel::DenseVoxelId v) const {
    return tier_by_group.empty()
               ? 0
               : tier_by_group[static_cast<std::size_t>(v)];
  }
};

// The footprint tier for one group under `policy` (no budget demotion).
// Returns 0 when the intent has no camera.
int select_group_tier(const AssetStore& store, const FrameIntent& intent,
                      voxel::DenseVoxelId v, const LodPolicy& policy);

// Tier selection for a frame's plan candidates, including budget demotion.
TierSelection select_frame_tiers(const AssetStore& store,
                                 const FrameIntent& intent,
                                 std::span<const voxel::DenseVoxelId> plan_voxels,
                                 const LodPolicy& policy);

// Named presets for CLI flags (--lod / --quality):
//   "off" | "l0"  force_tier0 (bit-exact)
//   "quality"     conservative thresholds, little pruning
//   "balanced"    the LodPolicy{} defaults
//   "aggressive"  eager pruning, maximum fetch savings
// Throws std::invalid_argument on unknown names.
LodPolicy lod_policy_from_name(const std::string& name);

}  // namespace sgs::stream
