// The STREAMINGGS fully streaming renderer (paper Sec. III).
//
// Offline, StreamingScene partitions the model into voxels, lays the two
// parameter halves out voxel-contiguously, and (optionally) trains the VQ
// codebooks. Per frame, each pixel group (a) ray-marches its pixels through
// the grid (VSU), (b) topologically sorts the intersected voxels, then (c)
// streams each voxel through hierarchical filtering, a per-voxel depth sort,
// and on-chip alpha blending. Only final pixels are written back: the
// pipeline has *zero* intermediate DRAM traffic, the paper's core claim.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/image.hpp"
#include "core/streaming_trace.hpp"
#include "gs/camera.hpp"
#include "gs/gaussian.hpp"
#include "gs/gaussian_soa.hpp"
#include "voxel/grid.hpp"
#include "voxel/layout.hpp"
#include "vq/quantized_model.hpp"

namespace sgs::core {

struct StreamingConfig {
  // Paper Sec. V-A: voxel size 2.0 for real-world scenes, 0.4 for synthetic.
  float voxel_size = 2.0f;
  // Pixel-group edge in pixels. Groups are the unit of voxel streaming; the
  // blending stage inside a group still operates per pixel. 64x64 is the
  // largest group whose accumulators (16 B color/transmittance + 4 B depth
  // per pixel = 80 KB) fit the paper's 89 KB inter-stage buffer.
  int group_size = 64;
  // VSU ray-sampling stride: voxel discovery and ordering march every
  // stride-th pixel ray (plus the group's edge rays). Voxels project tens of
  // pixels wide, so a sparse ray grid finds the same voxel set at a fraction
  // of the VSU work; stride 1 degenerates to exact per-pixel traversal.
  int ray_stride = 8;
  // Disables give the paper's ablation variants: w/o CGF skips the
  // coarse-grained filter (every resident is fine-filtered), w/o VQ streams
  // raw 220-byte fine records instead of codebook indices.
  bool use_coarse_filter = true;
  bool use_vq = true;
  vq::VqConfig vq;
  Vec3f background{0.0f, 0.0f, 0.0f};
};

// Offline-prepared scene: grid + DRAM layout + optional quantization. The
// render parameters are held once, as the grouped SoA columns the renderer
// reads; under VQ the indices and codebooks stay in quantized().
class StreamingScene {
 public:
  static StreamingScene prepare(const gs::GaussianModel& model,
                                const StreamingConfig& config);

  const StreamingConfig& config() const { return config_; }
  const voxel::VoxelGrid& grid() const { return grid_; }
  const voxel::DataLayout& layout() const { return layout_; }
  const vq::QuantizedModel* quantized() const { return quantized_.get(); }

  // SoA render parameters, grouped: the records of dense voxel v occupy the
  // contiguous slice [group_offset(v), group_offset(v + 1)) in the same
  // order as grid().gaussians_in(v). Each record is the Gaussian the fine
  // phase uses (VQ-decoded when quantization is on) and its max_scale is
  // that record's max_scale(), the coarse stream's 4th parameter. This is
  // the layout the batched kernels stream; empty for scenes assembled
  // from_parts.
  const gs::GaussianColumns& group_columns() const { return group_columns_; }
  std::size_t group_offset(voxel::DenseVoxelId v) const {
    return group_offsets_[v];
  }

  // True when the Gaussian parameters are resident in this scene (it was
  // prepared, so group_columns() is populated). Scenes assembled from_parts
  // carry only grid + layout + config and must be rendered through a
  // cache-backed GroupSource (src/stream/).
  bool params_resident() const { return !group_offsets_.empty(); }

  // Assembles a model-free scene around an out-of-core store's metadata:
  // grid, DRAM layout, and rendering config only. group_columns() and
  // quantized() stay empty.
  static StreamingScene from_parts(const StreamingConfig& config,
                                   voxel::VoxelGrid grid);

 private:
  StreamingConfig config_;
  std::unique_ptr<vq::QuantizedModel> quantized_;
  voxel::VoxelGrid grid_;
  voxel::DataLayout layout_{voxel::VoxelGrid(), false};
  gs::GaussianColumns group_columns_;
  std::vector<std::size_t> group_offsets_;
};

struct StreamingStats {
  // DRAM traffic (the streaming pipeline has exactly three streams).
  std::uint64_t coarse_read_bytes = 0;
  std::uint64_t fine_read_bytes = 0;
  std::uint64_t frame_write_bytes = 0;

  // Filtering funnel.
  std::uint64_t gaussians_streamed = 0;  // voxel residents entering coarse
  std::uint64_t coarse_pass = 0;
  std::uint64_t fine_pass = 0;

  // Rendering.
  std::uint64_t blend_ops = 0;
  std::uint64_t blended_contributions = 0;  // alpha > 0 blends
  std::uint64_t depth_order_violations = 0; // out-of-order contributions
  // Unique Gaussians that contributed / contributed out of depth order at
  // least once this frame (the paper's "error Gaussian" counting unit).
  std::uint64_t gaussians_blended_unique = 0;
  std::uint64_t gaussians_violating_unique = 0;

  // VSU.
  std::uint64_t dda_steps = 0;
  std::uint64_t voxel_visits = 0;  // total (group, voxel) pairs processed
  std::uint64_t topo_nodes = 0;
  std::uint64_t topo_edges = 0;
  std::uint64_t cycle_breaks = 0;

  std::uint32_t max_voxel_residents = 0;  // buffer-sizing diagnostic

  std::uint64_t total_dram_bytes() const {
    return coarse_read_bytes + fine_read_bytes + frame_write_bytes;
  }
  // Fraction of residents removed by hierarchical filtering (the paper
  // reports 76.3%).
  double filtered_fraction() const {
    return gaussians_streamed == 0
               ? 0.0
               : 1.0 - static_cast<double>(fine_pass) /
                           static_cast<double>(gaussians_streamed);
  }
  // The paper's "error Gaussian ratio" (Fig. 7): fraction of rendered
  // Gaussians that contributed out of depth order at least once (the
  // measured T_i of Eq. 2, counted per Gaussian).
  double violation_ratio() const {
    return gaussians_blended_unique == 0
               ? 0.0
               : static_cast<double>(gaussians_violating_unique) /
                     static_cast<double>(gaussians_blended_unique);
  }
  // Contribution-level variant (every out-of-order alpha blend counts).
  double violation_contribution_ratio() const {
    return blended_contributions == 0
               ? 0.0
               : static_cast<double>(depth_order_violations) /
                     static_cast<double>(blended_contributions);
  }
};

struct StreamingRenderResult {
  Image image;
  StreamingStats stats;
  StreamingTrace trace;
  // Model indices of Gaussians that contributed out of depth order at least
  // once (only filled when collect_violators is set; feeds fine-tuning).
  std::vector<std::uint32_t> violators;
  // Wall-clock time of the whole frame (plan + render + source brackets),
  // filled by SequenceRenderer::render — the per-session latency sample a
  // scene server aggregates into p50/p95. Zero for single-frame
  // render_streaming calls. Diagnostic metadata: never deterministic, never
  // part of image or stats comparisons.
  std::uint64_t frame_wall_ns = 0;
};

struct StreamingRenderOptions {
  bool collect_violators = false;
  // Overrides the scene config's coarse-filter flag when set (lets ablation
  // variants share one prepared scene; preparation only depends on VQ).
  std::optional<bool> coarse_filter_override;
  // Records wall-clock per-stage timings into the trace (StageTimingsNs).
  // Off by default: the clock reads sit in the per-voxel hot loop. Timing is
  // metadata only — image bytes and stats are identical either way.
  bool collect_stage_timing = false;
};

StreamingRenderResult render_streaming(
    const StreamingScene& scene, const gs::Camera& camera,
    const StreamingRenderOptions& options = {});

}  // namespace sgs::core
