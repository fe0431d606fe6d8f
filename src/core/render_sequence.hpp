// Frame-sequence rendering: the first genuinely *streaming* (multi-frame)
// scenario of the pipeline.
//
// A SequenceRenderer keeps the FrameScheduler (and its per-worker scratch
// arenas) and the last FramePlan alive across frames. While the camera moves
// less than the configured thresholds, the cached plan — built with a
// generous binning margin — is reused verbatim: the per-frame voxel-table
// rebuild (one conservative projection per non-empty voxel plus the group
// binning) is skipped entirely and the frame's trace charges zero
// voxel_table_steps, which is exactly the reuse win frame-to-frame streaming
// systems report. When the camera leaves the reuse envelope a fresh plan is
// built and the cycle restarts.
//
// Thread-safety and the out-of-core bracket: a SequenceRenderer is a
// single viewer — render() must be called sequentially on one instance
// (its cached plan and scheduler arenas are not guarded). Distinct
// instances render concurrently; that is how serve::SceneServer hosts N
// sessions, each with its own SequenceRenderer and stream::StreamingLoader
// over one shared, thread-safe cache. When a `source` is supplied, every
// frame is bracketed: begin_frame(intent, plan_voxels) before rendering —
// plan_voxels is the cached plan's stored working set
// (FramePlan::working_set), so a reused plan hands it over without any
// recomputation; the loader pins it against eviction, selects tiers and
// prefetches ahead — and end_frame() after, which drops exactly those pins.
// The source's counter deltas over that window land in the result's
// trace.cache, and frame_wall_ns carries the frame's wall-clock latency
// for server-side p50/p95 aggregation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/frame_plan.hpp"
#include "core/frame_scheduler.hpp"
#include "core/streaming_renderer.hpp"

namespace sgs::stream {
class GroupSource;
}

namespace sgs::core {

struct SequenceOptions {
  // Per-frame render options (violator collection, coarse override, stage
  // timing).
  StreamingRenderOptions render;
  // A cached plan is reused while the camera stays within these bounds of
  // the camera the plan was built for. Reuse is approximate: the plan's
  // binning margin absorbs the projection drift for geometry at moderate
  // depth, so thresholds should be chosen against plan_margin_px (roughly
  // margin >= focal * rotation + focal * translation / min scene depth).
  float reuse_max_translation = 0.1f;
  float reuse_max_rotation_rad = 0.02f;
  // Binning margin used for plans built by the sequence (the single-frame
  // renderer uses 1 px; sequences pad more so the plan survives motion).
  float plan_margin_px = 24.0f;
};

struct SequenceStats {
  std::size_t plans_built = 0;
  std::size_t plans_reused = 0;
  // Cached plans discarded because a frame changed image size/intrinsics
  // (always replanned, never reused across geometries).
  std::size_t plans_invalidated_geometry = 0;
};

class SequenceRenderer {
 public:
  // `source` selects where voxel groups come from: nullptr renders fully
  // resident from `scene`; a stream::StreamingLoader renders out of core
  // against `scene`'s grid + layout metadata (e.g. an
  // AssetStore::make_scene() scene). The renderer
  // brackets every frame with the source's begin_frame/end_frame — passing
  // the camera, the reuse envelope as the motion hint, and the plan's
  // working set — and publishes the source's per-frame counter
  // deltas in each result's trace.cache.
  explicit SequenceRenderer(const StreamingScene& scene,
                            SequenceOptions options = {},
                            stream::GroupSource* source = nullptr);

  // Renders the next frame of the sequence. The camera may have any pose.
  // A change of image geometry (size or intrinsics) is valid but forces a
  // replan — a cached plan is never silently reused across geometries.
  StreamingRenderResult render(const gs::Camera& camera);

  const SequenceStats& stats() const { return stats_; }

 private:
  const StreamingScene* scene_;
  SequenceOptions options_;
  stream::GroupSource* source_;
  FrameScheduler scheduler_;
  std::optional<FramePlan> plan_;
  SequenceStats stats_;
};

struct SequenceResult {
  std::vector<StreamingRenderResult> frames;
  SequenceStats stats;
};

// Convenience wrapper: renders a whole camera trajectory through one
// SequenceRenderer (optionally out of core through `source`).
SequenceResult render_sequence(const StreamingScene& scene,
                               const std::vector<gs::Camera>& cameras,
                               const SequenceOptions& options = {},
                               stream::GroupSource* source = nullptr);

}  // namespace sgs::core
