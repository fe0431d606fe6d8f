#include "core/render_sequence.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "stream/group_source.hpp"

namespace sgs::core {

SequenceRenderer::SequenceRenderer(const StreamingScene& scene,
                                   SequenceOptions options,
                                   stream::GroupSource* source)
    : scene_(&scene), options_(std::move(options)), source_(source) {}

StreamingRenderResult SequenceRenderer::render(const gs::Camera& camera) {
  SGS_TRACE_SPAN("frame", "frame");
  const std::uint64_t frame_t0 = stage_clock_ns();
  // Image-geometry changes invalidate the cached plan outright: a plan
  // binned for other dimensions or intrinsics must never be reused (the
  // scheduler would reject it), and it cannot become valid again later.
  if (plan_.has_value() && !plan_->same_image_geometry(camera)) {
    plan_.reset();
    ++stats_.plans_invalidated_geometry;
  }

  const bool reuse =
      plan_.has_value() &&
      plan_->reusable_for(camera, options_.reuse_max_translation,
                          options_.reuse_max_rotation_rad);
  std::uint64_t plan_ns = 0;
  if (!reuse) {
    SGS_TRACE_SPAN("stage", "plan");
    plan_ = FramePlan::build_timed(scene_->grid(), camera,
                                   scene_->config().group_size,
                                   options_.plan_margin_px,
                                   options_.render.collect_stage_timing,
                                   plan_ns);
    ++stats_.plans_built;
  } else {
    ++stats_.plans_reused;
  }

  // Out-of-core bracket: hand the source the camera, the expected
  // inter-frame motion (the reuse envelope), and the plan's candidate set —
  // it pins the working set and prefetches ahead while the frame renders.
  StreamCacheStats before;
  if (source_ != nullptr) {
    // Snapshot BEFORE begin_frame: synchronous prefetch happens inside it,
    // and that traffic belongs to this frame's delta (the simulator prices
    // trace.cache.bytes_fetched — dropping prefetches would make a better
    // prefetcher look like less fetch traffic).
    before = source_->stats();
    stream::FrameIntent intent;
    intent.camera = &camera;
    intent.motion_translation = options_.reuse_max_translation;
    intent.motion_rotation_rad = options_.reuse_max_rotation_rad;
    source_->begin_frame(intent, plan_->working_set());
  }

  StreamingRenderResult result =
      scheduler_.render_frame(*scene_, camera, *plan_, options_.render,
                              source_);
  result.trace.plan_reused = reuse;
  result.trace.plan_build_ns = plan_ns;
  if (reuse) {
    // The voxel table was not rebuilt this frame: the VSU is charged zero
    // table steps, which is exactly the reuse win the sim sees.
    result.trace.voxel_table_steps = 0;
  }

  if (source_ != nullptr) {
    source_->end_frame();
    result.trace.cache = source_->stats().delta_since(before);
  }
  result.frame_wall_ns = stage_clock_ns() - frame_t0;
  return result;
}

SequenceResult render_sequence(const StreamingScene& scene,
                               const std::vector<gs::Camera>& cameras,
                               const SequenceOptions& options,
                               stream::GroupSource* source) {
  SequenceRenderer renderer(scene, options, source);
  SequenceResult out;
  out.frames.reserve(cameras.size());
  for (const gs::Camera& cam : cameras) {
    out.frames.push_back(renderer.render(cam));
  }
  out.stats = renderer.stats();
  return out;
}

}  // namespace sgs::core
