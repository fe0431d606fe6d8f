#include "core/streaming_renderer.hpp"

#include <utility>

#include "core/frame_plan.hpp"
#include "core/frame_scheduler.hpp"

namespace sgs::core {

StreamingScene StreamingScene::prepare(const gs::GaussianModel& model,
                                       const StreamingConfig& config) {
  StreamingScene scene;
  scene.config_ = config;

  if (config.use_vq) {
    scene.quantized_ = std::make_unique<vq::QuantizedModel>(
        vq::QuantizedModel::build(model, config.vq));
  }

  // The grid partitions by (exact) positions, which VQ leaves untouched.
  scene.grid_ = voxel::VoxelGrid::build(model, config.voxel_size);
  scene.layout_ = voxel::DataLayout(scene.grid_, config.use_vq);

  // The render parameters, grouped: dense voxel v's residents as one
  // contiguous column slice, in gaussians_in(v) order, each record decoded
  // straight into its slot. The coarse max-scale is the decoded record's,
  // so the coarse filter stays conservative under VQ, and a cache entry
  // decoding the same records yields bitwise-equal columns (the OOC ==
  // resident invariant).
  const std::size_t n_voxels = scene.grid_.voxel_count();
  scene.group_offsets_.resize(n_voxels + 1);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n_voxels; ++v) {
    scene.group_offsets_[v] = total;
    total += scene.grid_.gaussians_in(static_cast<voxel::DenseVoxelId>(v))
                 .size();
  }
  scene.group_offsets_[n_voxels] = total;
  gs::GaussianColumns& cols = scene.group_columns_;
  cols.resize(total);
  std::size_t k = 0;
  for (std::size_t v = 0; v < n_voxels; ++v) {
    for (const std::uint32_t mi :
         scene.grid_.gaussians_in(static_cast<voxel::DenseVoxelId>(v))) {
      const gs::Gaussian g = scene.quantized_ ? scene.quantized_->decode(mi)
                                              : model.gaussians[mi];
      cols.set(k++, g, g.max_scale());
    }
  }
  return scene;
}

StreamingScene StreamingScene::from_parts(const StreamingConfig& config,
                                          voxel::VoxelGrid grid) {
  StreamingScene scene;
  scene.config_ = config;
  scene.grid_ = std::move(grid);
  scene.layout_ = voxel::DataLayout(scene.grid_, config.use_vq);
  return scene;
}

StreamingRenderResult render_streaming(const StreamingScene& scene,
                                       const gs::Camera& camera,
                                       const StreamingRenderOptions& options) {
  // Single-frame entry point: build the plan with the renderer's 1 px
  // binning margin (bit-exact with the pre-pipeline monolith) and run the
  // staged pipeline once. Sequence rendering (render_sequence.hpp) keeps the
  // plan and scheduler alive across frames instead.
  std::uint64_t plan_ns = 0;
  const FramePlan plan = FramePlan::build_timed(
      scene.grid(), camera, scene.config().group_size, /*margin_px=*/1.0f,
      options.collect_stage_timing, plan_ns);

  FrameScheduler scheduler;
  StreamingRenderResult result =
      scheduler.render_frame(scene, camera, plan, options);
  result.trace.plan_build_ns = plan_ns;
  return result;
}

}  // namespace sgs::core
