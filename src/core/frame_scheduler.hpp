// Frame scheduler: runs every pixel group of a FramePlan through the staged
// GroupPipeline on the persistent worker pool.
//
// Ownership model: the scheduler keeps one GroupContext scratch arena per
// pool worker, so consecutive groups (and consecutive frames, when the
// scheduler is kept alive by a SequenceRenderer) reuse the same buffers and
// the hot loop never reallocates. A frame is exactly one pool job. Group
// counters land in per-group slots and are merged in group-index order
// after it; inside it, each worker flags its group's contributors and
// violators in two frame-wide byte arrays indexed by model index (sized to
// the scene's gaussian_count every frame), and the unique counts and the
// ascending violator list are read off those flags after the job. Every
// counter is therefore deterministic under any dynamic schedule.
//
// Thread-safety: one FrameScheduler renders one frame at a time — its
// per-worker arenas and flag arrays are reused across calls, so render_frame
// must not be invoked concurrently on the same instance. Distinct instances
// (e.g. one per viewer session in a serve::SceneServer) may render
// concurrently: their pool jobs serialize FIFO-fairly on the shared worker
// pool, and a cache-backed `source` must itself be thread-safe
// (ResidencyCache is).
// Within a frame, the pipeline calls source->acquire()/release() from any
// worker concurrently; every acquired view is released before the frame
// returns, and plan-level pinning is the *caller's* job (the sequence
// renderer brackets the frame with the source's begin_frame/end_frame).
#pragma once

#include <cstdint>
#include <vector>

#include "core/frame_plan.hpp"
#include "core/group_pipeline.hpp"
#include "core/streaming_renderer.hpp"

namespace sgs::core {

class FrameScheduler {
 public:
  FrameScheduler();

  // Renders one frame: every group of `plan` through the staged pipeline.
  // `camera` must match the plan's image geometry — same size and
  // intrinsics; the pose may differ when sequence rendering reuses a plan.
  // A geometry mismatch throws std::invalid_argument (a stale plan would
  // otherwise mis-tile the frame silently). `source` supplies voxel-group
  // data: nullptr renders fully resident from `scene`; a cache-backed
  // source (src/stream/) renders out of core — the caller brackets the
  // frame with begin_frame/end_frame in that case.
  StreamingRenderResult render_frame(const StreamingScene& scene,
                                     const gs::Camera& camera,
                                     const FramePlan& plan,
                                     const StreamingRenderOptions& options,
                                     stream::GroupSource* source = nullptr);

 private:
  std::vector<GroupContext> contexts_;  // one per pool worker
  // Per-frame flags by model index: blended into / violated depth order in
  // at least one group.
  std::vector<std::uint8_t> contributed_;
  std::vector<std::uint8_t> violated_;
};

}  // namespace sgs::core
