#include "core/frame_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"

namespace sgs::core {

namespace {

// Flags every model index in `indices`. Workers of one job may flag the same
// index at once, hence the relaxed atomic stores; the job's join orders them
// before the serial read-off. Model indices are < gaussian_count by
// construction: VoxelGrid::assemble rejects any resident index >=
// gaussian_count, and AssetStore::open requires every tier >= 1 table to be
// a subsequence of tier 0, so no source can hand the pipeline a larger one.
void mark(std::vector<std::uint8_t>& flags,
          const std::vector<std::uint32_t>& indices) {
  for (const std::uint32_t i : indices) {
    assert(i < flags.size());
    std::atomic_ref<std::uint8_t>(flags[i]).store(1, std::memory_order_relaxed);
  }
}

}  // namespace

FrameScheduler::FrameScheduler()
    : contexts_(static_cast<std::size_t>(parallelism())) {}

StreamingRenderResult FrameScheduler::render_frame(
    const StreamingScene& scene, const gs::Camera& camera,
    const FramePlan& plan, const StreamingRenderOptions& options,
    stream::GroupSource* source) {
  // A plan binned for different image geometry would tile this frame
  // wrongly (and silently): reject it here, at the last common gate of the
  // single-frame and sequence paths.
  if (!plan.same_image_geometry(camera)) {
    throw std::invalid_argument(
        "render_frame: camera image geometry does not match the plan's");
  }

  StreamingConfig cfg = scene.config();
  if (options.coarse_filter_override) {
    cfg.use_coarse_filter = *options.coarse_filter_override;
  }

  const int width = camera.width();
  const int height = camera.height();
  const std::size_t group_count = plan.group_count();

  StreamingRenderResult result;
  result.image = Image(width, height, cfg.background);
  result.trace.group_size = plan.group_size();
  result.trace.pixel_count = static_cast<std::uint64_t>(width) * height;
  result.trace.groups.resize(group_count);
  result.trace.voxel_table_steps = plan.voxel_table_steps();

  GroupPipelineOptions pipe_options;
  pipe_options.use_coarse_filter = cfg.use_coarse_filter;
  pipe_options.ray_stride = cfg.ray_stride;
  pipe_options.collect_stage_timing = options.collect_stage_timing;

  // Per-group result slots: any dynamic schedule is race-free (disjoint
  // slots + disjoint pixel regions), and the sequential merge below makes
  // every counter deterministic. The unique-Gaussian flags are set-once
  // bytes, so their final state is schedule-independent too.
  std::vector<StreamingStats> group_stats(group_count);
  const std::size_t n_gaussians = scene.grid().gaussian_count();
  contributed_.assign(n_gaussians, 0);
  violated_.assign(n_gaussians, 0);

  // The pool may be resized between frames (set_parallelism in tests);
  // follow it so worker indices always have an arena.
  const auto workers = static_cast<std::size_t>(parallelism());
  if (contexts_.size() < workers) contexts_.resize(workers);

  // Default source: the fully-resident scene. A scene assembled from store
  // metadata (from_parts) has no parameters to read — rendering it without
  // a cache-backed source would dereference an empty model.
  if (source == nullptr && !scene.params_resident()) {
    throw std::invalid_argument(
        "render_frame: model-free scene requires a cache-backed GroupSource");
  }
  std::optional<stream::ResidentGroupSource> resident;
  if (source == nullptr) resident.emplace(scene);
  stream::GroupSource& src = source ? *source : *resident;

  parallel_for_workers(0, group_count, [&](int worker, std::size_t gi) {
    GroupContext& ctx = contexts_[static_cast<std::size_t>(worker)];
    GroupPipeline::render_group(scene, camera, plan, gi, pipe_options, src,
                                ctx, result.trace.groups[gi], group_stats[gi],
                                result.image);
    mark(contributed_, ctx.contributors);
    mark(violated_, ctx.violators);
  });

  // Deterministic merge in group-index order.
  StreamingStats total;
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const StreamingStats& local = group_stats[gi];
    total.coarse_read_bytes += local.coarse_read_bytes;
    total.fine_read_bytes += local.fine_read_bytes;
    total.frame_write_bytes += local.frame_write_bytes;
    total.gaussians_streamed += local.gaussians_streamed;
    total.coarse_pass += local.coarse_pass;
    total.fine_pass += local.fine_pass;
    total.blend_ops += local.blend_ops;
    total.blended_contributions += local.blended_contributions;
    total.depth_order_violations += local.depth_order_violations;
    total.dda_steps += local.dda_steps;
    total.voxel_visits += local.voxel_visits;
    total.topo_nodes += local.topo_nodes;
    total.topo_edges += local.topo_edges;
    total.cycle_breaks += local.cycle_breaks;
    total.max_voxel_residents =
        std::max(total.max_voxel_residents, local.max_voxel_residents);
  }

  // Groups tile the image exactly once: the per-group RGBA8 write-backs must
  // sum to the full frame.
  assert(total.frame_write_bytes ==
         static_cast<std::uint64_t>(width) * height * 4);

  total.gaussians_blended_unique = static_cast<std::uint64_t>(
      std::count(contributed_.begin(), contributed_.end(), 1));
  total.gaussians_violating_unique = static_cast<std::uint64_t>(
      std::count(violated_.begin(), violated_.end(), 1));
  result.stats = total;
  result.trace.frame_write_bytes = total.frame_write_bytes;
  if (options.collect_violators) {
    result.violators.reserve(total.gaussians_violating_unique);
    for (std::size_t i = 0; i < n_gaussians; ++i) {
      if (violated_[i] != 0) {
        result.violators.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  return result;
}

}  // namespace sgs::core
