// Tests for the staged frame pipeline: FramePlan binning, the individual
// GroupPipeline stages, the FrameScheduler's deterministic merging, the
// frame-sequence API, and — most importantly — a golden regression proving
// the staged pipeline reproduces the pre-refactor monolithic renderer
// bit-for-bit (image bytes and every StreamingStats counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/bitonic.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/frame_plan.hpp"
#include "core/frame_scheduler.hpp"
#include "core/group_pipeline.hpp"
#include "core/hierarchical_filter.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "core/voxel_order.hpp"
#include "gs/blending.hpp"
#include "metrics/psnr.hpp"
#include "scene/generator.hpp"
#include "voxel/dda.hpp"
#include "voxel/layout.hpp"

namespace sgs::core {
namespace {

// ---------------------------------------------------------------------------
// Golden reference: a faithful (serial) copy of the pre-refactor monolithic
// render_streaming loop, kept here so the staged pipeline can be checked
// against the exact computation the seed renderer performed. Do not
// "improve" this function — its value is being frozen history. `model` is
// the model the scene renders (the source model of a raw scene); the coarse
// stream's scale of record mi is model.gaussians[mi].max_scale().
// ---------------------------------------------------------------------------

struct RefSurvivor {
  gs::ProjectedGaussian proj;
  std::uint32_t model_index;
};

StreamingRenderResult reference_render_monolithic(
    const StreamingScene& scene, const gs::GaussianModel& model,
    const gs::Camera& camera, const StreamingRenderOptions& options = {}) {
  StreamingConfig cfg = scene.config();
  if (options.coarse_filter_override) {
    cfg.use_coarse_filter = *options.coarse_filter_override;
  }
  const voxel::VoxelGrid& grid = scene.grid();
  const voxel::DataLayout& layout = scene.layout();

  const int width = camera.width();
  const int height = camera.height();
  const int gsz = cfg.group_size;
  const int groups_x = (width + gsz - 1) / gsz;
  const int groups_y = (height + gsz - 1) / gsz;
  const std::size_t group_count = static_cast<std::size_t>(groups_x) * groups_y;

  StreamingRenderResult result;
  result.image = Image(width, height, cfg.background);
  result.trace.group_size = gsz;
  result.trace.pixel_count = static_cast<std::uint64_t>(width) * height;
  result.trace.groups.resize(group_count);

  const Vec3f cam_pos = camera.position();
  auto depth_key = [&](voxel::DenseVoxelId v) {
    return (grid.voxel_center(v) - cam_pos).norm();
  };

  // Voxel -> group binning, serial version of the seed's mutex-guarded loop.
  std::vector<std::vector<voxel::DenseVoxelId>> group_candidates(group_count);
  for (std::int32_t vi = 0; vi < grid.voxel_count(); ++vi) {
    const auto v = static_cast<voxel::DenseVoxelId>(vi);
    const Vec3f lo = grid.voxel_min_corner(v);
    const float vs = grid.config().voxel_size;
    constexpr float kBinEps = 0.01f;
    int behind_near = 0;
    int behind_eps = 0;
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
    if (behind_near == 8) continue;
    int gx0, gx1, gy0, gy1;
    if (behind_eps > 0) {
      gx0 = 0; gy0 = 0; gx1 = groups_x - 1; gy1 = groups_y - 1;
    } else {
      gx0 = std::max(0, static_cast<int>((px0 - 1.0f) / static_cast<float>(gsz)));
      gy0 = std::max(0, static_cast<int>((py0 - 1.0f) / static_cast<float>(gsz)));
      gx1 = std::min(groups_x - 1,
                     static_cast<int>((px1 + 1.0f) / static_cast<float>(gsz)));
      gy1 = std::min(groups_y - 1,
                     static_cast<int>((py1 + 1.0f) / static_cast<float>(gsz)));
      if (gx0 > gx1 || gy0 > gy1) continue;
    }
    for (int gy = gy0; gy <= gy1; ++gy) {
      for (int gx = gx0; gx <= gx1; ++gx) {
        group_candidates[static_cast<std::size_t>(gy) * groups_x + gx].push_back(v);
      }
    }
  }
  for (auto& c : group_candidates) std::sort(c.begin(), c.end());
  result.trace.voxel_table_steps = static_cast<std::uint64_t>(grid.voxel_count());

  StreamingStats total;
  std::unordered_set<std::uint32_t> violator_set;
  std::unordered_set<std::uint32_t> contributor_set;

  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const int gx = static_cast<int>(gi) % groups_x;
    const int gy = static_cast<int>(gi) / groups_x;
    const int px0 = gx * gsz;
    const int py0 = gy * gsz;
    const int px1 = std::min(width, px0 + gsz);
    const int py1 = std::min(height, py0 + gsz);
    const int n_px = (px1 - px0) * (py1 - py0);
    const GroupRect rect{static_cast<float>(px0), static_cast<float>(py0),
                         static_cast<float>(px1), static_cast<float>(py1)};

    StreamingStats local;
    GroupWork& work = result.trace.groups[gi];
    work.rays = static_cast<std::uint32_t>(n_px);

    const int stride = std::max(1, cfg.ray_stride);
    std::vector<int> xs, ys;
    for (int px = px0; px < px1; px += stride) xs.push_back(px);
    if (xs.empty() || xs.back() != px1 - 1) xs.push_back(px1 - 1);
    for (int py = py0; py < py1; py += stride) ys.push_back(py);
    if (ys.empty() || ys.back() != py1 - 1) ys.push_back(py1 - 1);

    std::vector<std::vector<voxel::DenseVoxelId>> per_ray;
    per_ray.reserve(xs.size() * ys.size());
    voxel::DdaStats dda_stats;
    for (int py : ys) {
      for (int px : xs) {
        const gs::Ray ray = camera.pixel_ray(static_cast<float>(px) + 0.5f,
                                             static_cast<float>(py) + 0.5f);
        per_ray.push_back(
            voxel::intersected_voxels(ray, grid, 1e30f, &dda_stats));
      }
    }
    local.dda_steps = dda_stats.steps;
    work.dda_steps = dda_stats.steps;

    for (const voxel::DenseVoxelId v : group_candidates[gi]) {
      per_ray.push_back({v});
    }

    const VoxelOrderResult order = topological_voxel_order(per_ray, depth_key);
    local.topo_nodes = order.node_count;
    local.topo_edges = order.edge_count;
    local.cycle_breaks = order.cycle_breaks;
    work.nodes = static_cast<std::uint32_t>(order.node_count);
    work.edges = static_cast<std::uint32_t>(order.edge_count);
    work.voxels.reserve(order.order.size());

    std::vector<gs::PixelAccumulator> acc(static_cast<std::size_t>(n_px));
    std::vector<float> max_depth(static_cast<std::size_t>(n_px), 0.0f);
    int saturated = 0;

    std::vector<RefSurvivor> survivors;
    std::vector<RefSurvivor> sorted_survivors;
    std::vector<float> sort_keys;
    std::vector<std::uint32_t> sort_payload;
    for (voxel::DenseVoxelId v : order.order) {
      if (saturated == n_px) break;

      const auto residents = grid.gaussians_in(v);
      VoxelWorkItem item;
      item.residents = static_cast<std::uint32_t>(residents.size());
      item.coarse_bytes =
          static_cast<std::uint64_t>(residents.size()) * voxel::kCoarseRecordBytes;
      local.max_voxel_residents =
          std::max(local.max_voxel_residents, item.residents);

      survivors.clear();
      for (const std::uint32_t mi : residents) {
        bool coarse_ok = true;
        if (cfg.use_coarse_filter) {
          coarse_ok = coarse_filter(model.gaussians[mi].position,
                                    model.gaussians[mi].max_scale(), camera,
                                    rect);
        }
        if (!coarse_ok) continue;
        ++item.coarse_pass;
        if (auto proj = fine_filter(model.gaussians[mi], camera, rect)) {
          ++item.fine_pass;
          survivors.push_back({*proj, mi});
        }
      }
      item.fine_bytes = layout.fine_bytes(item.coarse_pass);

      if (survivors.size() > 1) {
        sort_keys.resize(survivors.size());
        sort_payload.resize(survivors.size());
        for (std::size_t k = 0; k < survivors.size(); ++k) {
          sort_keys[k] = survivors[k].proj.depth;
          sort_payload[k] = static_cast<std::uint32_t>(k);
        }
        bitonic_sort(sort_keys, sort_payload);
        sorted_survivors.clear();
        sorted_survivors.reserve(survivors.size());
        for (std::uint32_t idx : sort_payload) {
          sorted_survivors.push_back(survivors[idx]);
        }
        survivors.swap(sorted_survivors);
      }

      const int row = px1 - px0;
      for (const RefSurvivor& s : survivors) {
        if (saturated == n_px) break;
        const gs::PixelSpan span = gs::splat_pixel_span(
            s.proj.mean, s.proj.radius, px0, py0, px1, py1);
        bool contributed = false;
        bool violated = false;
        for (int py = span.y0; py < span.y1; ++py) {
          for (int px = span.x0; px < span.x1; ++px) {
            const int pi = (py - py0) * row + (px - px0);
            gs::PixelAccumulator& a = acc[static_cast<std::size_t>(pi)];
            if (a.saturated()) continue;
            ++item.blend_ops;
            const float alpha = gs::gaussian_alpha(
                s.proj,
                {static_cast<float>(px) + 0.5f, static_cast<float>(py) + 0.5f});
            if (alpha <= 0.0f) continue;
            contributed = true;
            ++local.blended_contributions;
            float& md = max_depth[static_cast<std::size_t>(pi)];
            if (s.proj.depth < md - 1e-6f) {
              ++local.depth_order_violations;
              violated = true;
            } else {
              md = s.proj.depth;
            }
            gs::blend(a, s.proj.color, alpha);
            if (a.saturated()) ++saturated;
          }
        }
        if (contributed) contributor_set.insert(s.model_index);
        if (violated) violator_set.insert(s.model_index);
      }

      local.gaussians_streamed += item.residents;
      local.coarse_pass += item.coarse_pass;
      local.fine_pass += item.fine_pass;
      local.blend_ops += item.blend_ops;
      local.coarse_read_bytes += item.coarse_bytes;
      local.fine_read_bytes += item.fine_bytes;
      ++local.voxel_visits;
      work.voxels.push_back(item);
    }

    int pi = 0;
    for (int py = py0; py < py1; ++py) {
      for (int px = px0; px < px1; ++px, ++pi) {
        result.image.at(px, py) =
            gs::resolve(acc[static_cast<std::size_t>(pi)], cfg.background);
      }
    }
    local.frame_write_bytes = static_cast<std::uint64_t>(n_px) * 4;

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

  total.gaussians_blended_unique = contributor_set.size();
  total.gaussians_violating_unique = violator_set.size();
  result.stats = total;
  result.trace.frame_write_bytes = total.frame_write_bytes;
  if (options.collect_violators) {
    result.violators.assign(violator_set.begin(), violator_set.end());
    std::sort(result.violators.begin(), result.violators.end());
  }
  return result;
}

// ------------------------------------------------------------ test helpers --

gs::Camera test_camera(int w = 256, int h = 256) {
  return gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, w, h);
}

gs::GaussianModel test_model(std::uint64_t seed, std::size_t n = 8000) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.log_scale_mean = -4.0f;
  cfg.log_scale_std = 0.6f;
  cfg.seed = seed;
  return scene::generate_scene(cfg);
}

void expect_stats_equal(const StreamingStats& a, const StreamingStats& b) {
  EXPECT_EQ(a.coarse_read_bytes, b.coarse_read_bytes);
  EXPECT_EQ(a.fine_read_bytes, b.fine_read_bytes);
  EXPECT_EQ(a.frame_write_bytes, b.frame_write_bytes);
  EXPECT_EQ(a.gaussians_streamed, b.gaussians_streamed);
  EXPECT_EQ(a.coarse_pass, b.coarse_pass);
  EXPECT_EQ(a.fine_pass, b.fine_pass);
  EXPECT_EQ(a.blend_ops, b.blend_ops);
  EXPECT_EQ(a.blended_contributions, b.blended_contributions);
  EXPECT_EQ(a.depth_order_violations, b.depth_order_violations);
  EXPECT_EQ(a.gaussians_blended_unique, b.gaussians_blended_unique);
  EXPECT_EQ(a.gaussians_violating_unique, b.gaussians_violating_unique);
  EXPECT_EQ(a.dda_steps, b.dda_steps);
  EXPECT_EQ(a.voxel_visits, b.voxel_visits);
  EXPECT_EQ(a.topo_nodes, b.topo_nodes);
  EXPECT_EQ(a.topo_edges, b.topo_edges);
  EXPECT_EQ(a.cycle_breaks, b.cycle_breaks);
  EXPECT_EQ(a.max_voxel_residents, b.max_voxel_residents);
}

// ------------------------------------------------------- golden regression --

TEST(GoldenRegression, StagedPipelineMatchesMonolithBitExact) {
  // The in-test reference runs the historical scalar routines directly, so
  // bit-exactness holds at kScalar dispatch (vector paths are covered by
  // the PSNR-bounded test below and tests/test_kernels.cpp).
  const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
  const auto model = test_model(41);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera();

  const auto golden = reference_render_monolithic(scene, model, cam);
  const auto staged = render_streaming(scene, cam);

  EXPECT_EQ(staged.image.pixels(), golden.image.pixels());
  expect_stats_equal(staged.stats, golden.stats);
  EXPECT_EQ(staged.trace.voxel_table_steps, golden.trace.voxel_table_steps);
  EXPECT_EQ(staged.trace.total_dram_bytes(), golden.trace.total_dram_bytes());
  EXPECT_EQ(staged.trace.total_residents(), golden.trace.total_residents());
  EXPECT_EQ(staged.trace.total_blend_ops(), golden.trace.total_blend_ops());
  ASSERT_EQ(staged.trace.groups.size(), golden.trace.groups.size());
  for (std::size_t g = 0; g < staged.trace.groups.size(); ++g) {
    EXPECT_EQ(staged.trace.groups[g].voxels.size(),
              golden.trace.groups[g].voxels.size());
    EXPECT_EQ(staged.trace.groups[g].dda_steps, golden.trace.groups[g].dda_steps);
    EXPECT_EQ(staged.trace.groups[g].nodes, golden.trace.groups[g].nodes);
    EXPECT_EQ(staged.trace.groups[g].edges, golden.trace.groups[g].edges);
  }
}

TEST(GoldenRegression, MatchesMonolithWithoutCoarseFilterAndWithViolators) {
  const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
  const auto model = test_model(42, 6000);
  StreamingConfig scfg;
  scfg.voxel_size = 0.8f;
  scfg.use_vq = false;
  scfg.group_size = 32;
  scfg.ray_stride = 4;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera(192, 160);  // partial edge groups

  StreamingRenderOptions opts;
  opts.collect_violators = true;
  opts.coarse_filter_override = false;
  const auto golden = reference_render_monolithic(scene, model, cam, opts);
  const auto staged = render_streaming(scene, cam, opts);

  EXPECT_EQ(staged.image.pixels(), golden.image.pixels());
  expect_stats_equal(staged.stats, golden.stats);
  EXPECT_EQ(staged.violators, golden.violators);
}

// The vector paths are allowed to differ from the frozen scalar goldens
// only by FP reassociation/FMA and the blender's polynomial exp: the frame
// must stay visually identical (PSNR-bounded) and the filter funnel sizes
// must agree lane-for-lane with scalar on real scene data.
TEST(GoldenRegression, SimdDispatchStaysWithinGoldenPsnrBound) {
  if (simd::detect_isa() == simd::IsaLevel::kScalar) {
    GTEST_SKIP() << "no vector ISA on this host";
  }
  const auto model = test_model(41);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera();

  StreamingRenderResult scalar_r, simd_r;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    scalar_r = render_streaming(scene, cam);
  }
  simd_r = render_streaming(scene, cam);

  // Same funnel up to FP-boundary flips: a record sitting exactly on a cull
  // threshold may land differently under FMA, so the survivor counts get a
  // tiny slack rather than exact equality.
  EXPECT_EQ(simd_r.stats.gaussians_streamed, scalar_r.stats.gaussians_streamed);
  const auto near_count = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t d = a > b ? a - b : b - a;
    return d <= 2 + (a + b) / 2000;  // ±0.1%, minimum 2
  };
  EXPECT_TRUE(near_count(simd_r.stats.coarse_pass, scalar_r.stats.coarse_pass))
      << simd_r.stats.coarse_pass << " vs " << scalar_r.stats.coarse_pass;
  EXPECT_TRUE(near_count(simd_r.stats.fine_pass, scalar_r.stats.fine_pass))
      << simd_r.stats.fine_pass << " vs " << scalar_r.stats.fine_pass;
  const double psnr = metrics::psnr(simd_r.image, scalar_r.image);
  EXPECT_GT(psnr, 55.0) << "SIMD frame drifted from the scalar golden";
}

// --------------------------------------------------------------- FramePlan --

TEST(FramePlan, DeterministicAcrossParallelism) {
  const auto model = test_model(43, 5000);
  const auto grid = voxel::VoxelGrid::build(model, 0.7f);
  const gs::Camera cam = test_camera();

  const int saved = parallelism();
  set_parallelism(1);
  const FramePlan serial = FramePlan::build(grid, cam, 64);
  set_parallelism(4);
  const FramePlan threaded = FramePlan::build(grid, cam, 64);
  set_parallelism(saved);

  ASSERT_EQ(serial.group_count(), threaded.group_count());
  for (std::size_t g = 0; g < serial.group_count(); ++g) {
    EXPECT_EQ(serial.candidates(g), threaded.candidates(g));
  }
}

TEST(FramePlan, LargerMarginIsSuperset) {
  const auto model = test_model(44, 5000);
  const auto grid = voxel::VoxelGrid::build(model, 0.7f);
  const gs::Camera cam = test_camera();

  const FramePlan tight = FramePlan::build(grid, cam, 64, 1.0f);
  const FramePlan wide = FramePlan::build(grid, cam, 64, 24.0f);
  ASSERT_EQ(tight.group_count(), wide.group_count());
  for (std::size_t g = 0; g < tight.group_count(); ++g) {
    const auto& t = tight.candidates(g);
    const auto& w = wide.candidates(g);
    EXPECT_TRUE(std::includes(w.begin(), w.end(), t.begin(), t.end()))
        << "group " << g;
  }
}

TEST(FramePlan, ReusableForRespectsThresholds) {
  const auto model = test_model(45, 1000);
  const auto grid = voxel::VoxelGrid::build(model, 1.0f);
  const gs::Camera cam = test_camera();
  const FramePlan plan = FramePlan::build(grid, cam, 64, 24.0f);

  EXPECT_TRUE(plan.reusable_for(cam, 0.1f, 0.02f));

  const gs::Camera nudged =
      gs::Camera::look_at({0.01f, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 256, 256);
  EXPECT_TRUE(plan.reusable_for(nudged, 0.1f, 0.02f));

  const gs::Camera far_cam =
      gs::Camera::look_at({1.0f, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 256, 256);
  EXPECT_FALSE(plan.reusable_for(far_cam, 0.1f, 0.02f));

  const gs::Camera resized =
      gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 128, 128);
  EXPECT_FALSE(plan.reusable_for(resized, 10.0f, 10.0f));

  const gs::Camera rotated =
      gs::Camera::look_at({0, 0, -5}, {0.5f, 0, 0}, {0, 1, 0}, 0.8f, 256, 256);
  EXPECT_FALSE(plan.reusable_for(rotated, 10.0f, 0.02f));
}

// ------------------------------------------------------------------ stages --

TEST(SortStage, SortsSurvivorsByDepthLikeTheBitonicNetwork) {
  GroupContext ctx;
  const float depths[] = {5.0f, 1.0f, 3.0f, 2.0f, 4.0f, 0.5f, 6.0f};
  for (std::uint32_t i = 0; i < 7; ++i) {
    Survivor s;
    s.proj.depth = depths[i];
    s.model_index = i;
    ctx.survivors.push_back(s);
  }
  SortStage::run(ctx);
  ASSERT_EQ(ctx.survivors.size(), 7u);
  for (std::size_t i = 1; i < ctx.survivors.size(); ++i) {
    EXPECT_LE(ctx.survivors[i - 1].proj.depth, ctx.survivors[i].proj.depth);
  }
}

TEST(FilterStage, CountsMatchFunnelInvariant) {
  const auto model = test_model(46, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera();
  const GroupRect rect{96, 96, 160, 160};

  GroupContext ctx;
  std::uint64_t total_residents = 0, total_coarse = 0, total_fine = 0;
  for (voxel::DenseVoxelId v = 0; v < scene.grid().voxel_count(); ++v) {
    const auto residents = scene.grid().gaussians_in(v);
    const auto counts = FilterStage::run(ctx, scene, v, cam, rect,
                                         /*use_coarse_filter=*/true);
    EXPECT_LE(counts.fine_pass, counts.coarse_pass);
    EXPECT_LE(counts.coarse_pass, residents.size());
    EXPECT_EQ(ctx.survivors.size(), counts.fine_pass);
    total_residents += residents.size();
    total_coarse += counts.coarse_pass;
    total_fine += counts.fine_pass;

    // Without the coarse filter every resident reaches the fine phase, and
    // conservativeness means the fine survivors are identical.
    const auto no_cgf = FilterStage::run(ctx, scene, v, cam, rect,
                                         /*use_coarse_filter=*/false);
    EXPECT_EQ(no_cgf.coarse_pass, residents.size());
    EXPECT_EQ(no_cgf.fine_pass, counts.fine_pass);
  }
  EXPECT_GT(total_residents, 0u);
  EXPECT_LT(total_fine, total_residents);  // the funnel actually filters
  EXPECT_LE(total_coarse, total_residents);
}

TEST(VsuStage, ScratchArenaReuseDoesNotChangeResults) {
  const auto model = test_model(47, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera();
  const FramePlan plan = FramePlan::build(scene.grid(), cam, 64);

  // A fresh context per group vs one context reused across all groups (in
  // reverse order, so stale per_ray slots really get exercised).
  std::vector<VsuStageResult> fresh(plan.group_count());
  for (std::size_t g = 0; g < plan.group_count(); ++g) {
    GroupContext ctx;
    ctx.begin_group(64 * 64);
    const int gx = static_cast<int>(g) % plan.groups_x();
    const int gy = static_cast<int>(g) / plan.groups_x();
    fresh[g] = VsuStage::run(ctx, scene.grid(), cam, gx * 64, gy * 64,
                             gx * 64 + 64, gy * 64 + 64, 8, plan.candidates(g));
  }
  GroupContext reused;
  for (std::size_t i = plan.group_count(); i-- > 0;) {
    reused.begin_group(64 * 64);
    const int gx = static_cast<int>(i) % plan.groups_x();
    const int gy = static_cast<int>(i) / plan.groups_x();
    const auto r = VsuStage::run(reused, scene.grid(), cam, gx * 64, gy * 64,
                                 gx * 64 + 64, gy * 64 + 64, 8,
                                 plan.candidates(i));
    EXPECT_EQ(r.order.order, fresh[i].order.order) << "group " << i;
    EXPECT_EQ(r.dda_steps, fresh[i].dda_steps);
    EXPECT_EQ(r.order.edge_count, fresh[i].order.edge_count);
  }
}

// ----------------------------------------------------------- FrameScheduler --

TEST(FrameScheduler, DeterministicAcrossParallelismAndRepeats) {
  const auto model = test_model(48, 5000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera();
  const FramePlan plan = FramePlan::build(scene.grid(), cam, 64);

  const int saved = parallelism();
  set_parallelism(1);
  FrameScheduler sched1;
  const auto serial = sched1.render_frame(scene, cam, plan, {});
  set_parallelism(4);
  FrameScheduler sched4;
  const auto threaded = sched4.render_frame(scene, cam, plan, {});
  // Re-render on the same scheduler: scratch arenas are warm now.
  const auto warm = sched4.render_frame(scene, cam, plan, {});
  set_parallelism(saved);

  EXPECT_EQ(serial.image.pixels(), threaded.image.pixels());
  EXPECT_EQ(warm.image.pixels(), threaded.image.pixels());
  expect_stats_equal(serial.stats, threaded.stats);
  expect_stats_equal(warm.stats, threaded.stats);
}

TEST(FrameScheduler, FrameWriteBytesSumToFullFrame) {
  const auto model = test_model(49, 3000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  // Odd resolution: edge groups are partial; the per-group += accounting
  // must still sum to exactly width*height*4 RGBA8 bytes.
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera(200, 120);
  const auto r = render_streaming(scene, cam);
  EXPECT_EQ(r.stats.frame_write_bytes, 200u * 120u * 4u);
  EXPECT_EQ(r.trace.frame_write_bytes, 200u * 120u * 4u);
}

// ------------------------------------------------------------ stage timing --

TEST(StageTiming, CollectedWhenEnabledAndInertOtherwise) {
  const auto model = test_model(50, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera(128, 128);

  const auto untimed = render_streaming(scene, cam);
  EXPECT_EQ(untimed.trace.total_stage_ns().total(), 0u);

  StreamingRenderOptions opts;
  opts.collect_stage_timing = true;
  const auto timed = render_streaming(scene, cam, opts);
  const StageTimingsNs t = timed.trace.total_stage_ns();
  EXPECT_GT(t.total(), 0u);
  EXPECT_GT(t.plan, 0u);
  EXPECT_GT(t.vsu, 0u);
  EXPECT_GT(t.filter, 0u);
  EXPECT_GT(t.blend, 0u);

  // Timing is metadata only: the frame itself is identical.
  EXPECT_EQ(timed.image.pixels(), untimed.image.pixels());
  expect_stats_equal(timed.stats, untimed.stats);
}

// --------------------------------------------------------- render_sequence --

TEST(RenderSequence, StaticCameraReusesPlanAndStaysBitExact) {
  const auto model = test_model(51, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const gs::Camera cam = test_camera(128, 128);

  SequenceOptions opts;
  opts.plan_margin_px = 1.0f;  // match the single-frame renderer exactly
  const std::vector<gs::Camera> cams(4, cam);
  const auto seq = render_sequence(scene, cams, opts);

  EXPECT_EQ(seq.stats.plans_built, 1u);
  EXPECT_EQ(seq.stats.plans_reused, 3u);

  const auto single = render_streaming(scene, cam);
  ASSERT_EQ(seq.frames.size(), 4u);
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    EXPECT_EQ(seq.frames[f].image.pixels(), single.image.pixels()) << f;
    expect_stats_equal(seq.frames[f].stats, single.stats);
  }
  // Reused frames charge zero voxel-table build steps.
  EXPECT_FALSE(seq.frames[0].trace.plan_reused);
  EXPECT_GT(seq.frames[0].trace.voxel_table_steps, 0u);
  for (std::size_t f = 1; f < seq.frames.size(); ++f) {
    EXPECT_TRUE(seq.frames[f].trace.plan_reused);
    EXPECT_EQ(seq.frames[f].trace.voxel_table_steps, 0u);
  }
}

TEST(RenderSequence, SmallMotionReusesLargeMotionRebuilds) {
  const auto model = test_model(52, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);

  auto cam_at = [&](float x) {
    return gs::Camera::look_at({x, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 128, 128);
  };

  SequenceOptions opts;
  opts.reuse_max_translation = 0.05f;
  opts.reuse_max_rotation_rad = 0.05f;
  // Frames 0-2 creep (reusable), frame 3 jumps (rebuild), frame 4 creeps.
  const std::vector<gs::Camera> cams = {cam_at(0.0f), cam_at(0.01f),
                                        cam_at(0.02f), cam_at(1.0f),
                                        cam_at(1.01f)};
  const auto seq = render_sequence(scene, cams, opts);
  EXPECT_EQ(seq.stats.plans_built, 2u);
  EXPECT_EQ(seq.stats.plans_reused, 3u);
  EXPECT_TRUE(seq.frames[1].trace.plan_reused);
  EXPECT_TRUE(seq.frames[2].trace.plan_reused);
  EXPECT_FALSE(seq.frames[3].trace.plan_reused);
  EXPECT_TRUE(seq.frames[4].trace.plan_reused);

  // Reused frames stay close to a from-scratch render: the generous margin
  // keeps the binning conservative under creeping motion.
  for (std::size_t f = 1; f < 3; ++f) {
    const auto scratch = render_streaming(scene, cams[f]);
    EXPECT_GT(metrics::psnr_capped(seq.frames[f].image, scratch.image), 40.0)
        << "frame " << f;
  }
}

TEST(RenderSequence, GeometryChangeForcesReplanNeverStaleReuse) {
  const auto model = test_model(53, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);

  // Identical pose; the image geometry changes mid-sequence (resolution,
  // then intrinsics via a different fov). Thresholds are infinite so only
  // the geometry check can force the rebuilds; margin 1 px matches the
  // single-frame renderer so every frame compares bit-exact to scratch.
  SequenceOptions opts;
  opts.reuse_max_translation = 1e9f;
  opts.reuse_max_rotation_rad = 1e9f;
  opts.plan_margin_px = 1.0f;
  const std::vector<gs::Camera> cams = {
      test_camera(128, 128), test_camera(128, 128),
      test_camera(192, 96),  // resized
      gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.5f, 192, 96),
  };
  const auto seq = render_sequence(scene, cams, opts);
  ASSERT_EQ(seq.frames.size(), 4u);
  EXPECT_EQ(seq.stats.plans_built, 3u);
  EXPECT_EQ(seq.stats.plans_reused, 1u);
  EXPECT_EQ(seq.stats.plans_invalidated_geometry, 2u);
  // Every frame is correctly sized and matches a from-scratch render.
  for (std::size_t f = 0; f < cams.size(); ++f) {
    EXPECT_EQ(seq.frames[f].image.width(), cams[f].width());
    EXPECT_EQ(seq.frames[f].image.height(), cams[f].height());
    const auto scratch = render_streaming(scene, cams[f]);
    EXPECT_EQ(seq.frames[f].image.pixels(), scratch.image.pixels()) << f;
  }
}

TEST(FrameScheduler, RejectsPlanWithMismatchedImageGeometry) {
  const auto model = test_model(54, 3000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);

  const gs::Camera cam = test_camera(128, 128);
  const FramePlan plan =
      FramePlan::build(scene.grid(), cam, scene.config().group_size);
  FrameScheduler scheduler;

  // Same geometry, different pose: fine (the sequence-reuse case).
  const gs::Camera moved =
      gs::Camera::look_at({0.1f, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 128, 128);
  EXPECT_NO_THROW(scheduler.render_frame(scene, moved, plan, {}));

  // Different size or intrinsics: the stale plan must be rejected loudly.
  EXPECT_THROW(
      scheduler.render_frame(scene, test_camera(64, 64), plan, {}),
      std::invalid_argument);
  const gs::Camera refocused =
      gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.5f, 128, 128);
  EXPECT_THROW(scheduler.render_frame(scene, refocused, plan, {}),
               std::invalid_argument);
}

TEST(FramePlan, UniqueCandidatesIsSortedUnionOfGroups) {
  const auto model = test_model(55, 4000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const FramePlan plan =
      FramePlan::build(scene.grid(), test_camera(), 64, 8.0f);

  std::unordered_set<voxel::DenseVoxelId> expect;
  for (std::size_t g = 0; g < plan.group_count(); ++g) {
    for (const voxel::DenseVoxelId v : plan.candidates(g)) expect.insert(v);
  }
  const auto& uniq = plan.working_set();
  EXPECT_EQ(uniq.size(), expect.size());
  EXPECT_TRUE(std::is_sorted(uniq.begin(), uniq.end()));
  for (const voxel::DenseVoxelId v : uniq) EXPECT_TRUE(expect.count(v) > 0);
  // Every group's list is strictly ascending: sorted, no duplicates.
  for (std::size_t g = 0; g < plan.group_count(); ++g) {
    const auto& c = plan.candidates(g);
    EXPECT_TRUE(std::adjacent_find(c.begin(), c.end(),
                                   std::greater_equal<>()) == c.end())
        << "group " << g;
  }
}

// A frame is one pool job whether it builds its plan or reuses one: the plan
// is binned serially on the caller, and the unique-Gaussian counts are
// marked inside the render job.
TEST(FrameScheduler, OnePoolJobPerFrame) {
  const auto model = test_model(56, 3000);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  auto cam_at = [&](float x) {
    return gs::Camera::look_at({x, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 128, 128);
  };

  const int saved = parallelism();
  set_parallelism(4);
  SequenceOptions opts;
  opts.reuse_max_translation = 0.05f;
  SequenceRenderer renderer(scene, opts);
  // Build, reuse, rebuild.
  for (const float x : {0.0f, 0.01f, 1.0f}) {
    const std::uint64_t before = pool_jobs_completed();
    renderer.render(cam_at(x));
    EXPECT_EQ(pool_jobs_completed() - before, 1u) << "camera x " << x;
  }
  EXPECT_EQ(renderer.stats().plans_built, 2u);
  EXPECT_EQ(renderer.stats().plans_reused, 1u);

  const std::uint64_t before = pool_jobs_completed();
  render_streaming(scene, cam_at(0.0f));
  EXPECT_EQ(pool_jobs_completed() - before, 1u);
  set_parallelism(saved);
}

// The frame-wide unique-Gaussian flags follow the scene's gaussian_count on
// every frame: one scheduler alternating between scenes of different sizes
// reports exactly what a fresh scheduler does, at any worker count.
TEST(FrameScheduler, UniqueCountsFollowSceneSize) {
  StreamingConfig scfg;
  scfg.voxel_size = 0.8f;
  scfg.use_vq = false;
  const StreamingScene big = StreamingScene::prepare(test_model(57, 6000), scfg);
  const StreamingScene small =
      StreamingScene::prepare(test_model(58, 2000), scfg);
  const gs::Camera cam = test_camera(128, 128);
  StreamingRenderOptions opts;
  opts.collect_violators = true;

  const int saved = parallelism();
  for (const int workers : {1, 4}) {
    set_parallelism(workers);
    FrameScheduler shared;
    for (const StreamingScene* scene : {&big, &small, &big}) {
      const FramePlan plan =
          FramePlan::build(scene->grid(), cam, scene->config().group_size);
      const auto reused = shared.render_frame(*scene, cam, plan, opts);
      FrameScheduler fresh_scheduler;
      const auto fresh = fresh_scheduler.render_frame(*scene, cam, plan, opts);
      EXPECT_FALSE(fresh.violators.empty());
      EXPECT_EQ(reused.violators, fresh.violators) << workers;
      EXPECT_EQ(reused.stats.gaussians_blended_unique,
                fresh.stats.gaussians_blended_unique);
      EXPECT_EQ(reused.stats.gaussians_violating_unique,
                fresh.stats.gaussians_violating_unique);
      EXPECT_EQ(fresh.stats.gaussians_violating_unique,
                fresh.violators.size());
    }
  }
  set_parallelism(saved);
}

}  // namespace
}  // namespace sgs::core
