// Tests for the STREAMINGGS core: voxel ordering, hierarchical filtering,
// the streaming renderer's invariants, and boundary-aware fine-tuning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "core/finetune.hpp"
#include "core/hierarchical_filter.hpp"
#include "core/streaming_renderer.hpp"
#include "core/voxel_order.hpp"
#include "gs/sh.hpp"
#include "metrics/psnr.hpp"
#include "render/tile_renderer.hpp"
#include "scene/generator.hpp"

namespace sgs::core {
namespace {

using voxel::DenseVoxelId;

// ------------------------------------------------------------- voxel order --

float unit_depth(DenseVoxelId v) { return static_cast<float>(v); }

TEST(VoxelOrder, EmptyInput) {
  const auto r = topological_voxel_order({}, unit_depth);
  EXPECT_TRUE(r.order.empty());
  EXPECT_EQ(r.cycle_breaks, 0u);
}

TEST(VoxelOrder, SingleRayKeepsItsOrder) {
  const std::vector<std::vector<DenseVoxelId>> rays = {{4, 5, 2, 6, 3}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.order, (std::vector<DenseVoxelId>{4, 5, 2, 6, 3}));
  EXPECT_EQ(r.edge_count, 4u);
  EXPECT_EQ(r.cycle_breaks, 0u);
}

TEST(VoxelOrder, PaperFigure5Example) {
  // Fig. 5: R0 = 4,5,2,3; R1 = 4,5,6,3; R2/R3 = 4,5,6.
  const std::vector<std::vector<DenseVoxelId>> rays = {
      {4, 5, 2, 3}, {4, 5, 6, 3}, {4, 5, 6}, {4, 5, 6}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.node_count, 5u);
  EXPECT_EQ(r.cycle_breaks, 0u);
  EXPECT_TRUE(order_respects_rays(r.order, rays));
  // The paper's global order 4,5,2,6,3 is one valid topological order; ours
  // must at least respect all per-ray dependencies.
  EXPECT_EQ(r.order.front(), 4);
  EXPECT_EQ(r.order.back(), 3);
}

TEST(VoxelOrder, MergesDisjointRays) {
  const std::vector<std::vector<DenseVoxelId>> rays = {{1, 2}, {10, 11}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.node_count, 4u);
  EXPECT_TRUE(order_respects_rays(r.order, rays));
}

TEST(VoxelOrder, DetectsAndBreaksCycle) {
  // Ray A: 1 -> 2, Ray B: 2 -> 1 (impossible from one camera but the VSU
  // must not hang).
  const std::vector<std::vector<DenseVoxelId>> rays = {{1, 2}, {2, 1}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.order.size(), 2u);
  EXPECT_EQ(r.cycle_breaks, 1u);
  // The closer node (depth key 1) is released first.
  EXPECT_EQ(r.order.front(), 1);
}

TEST(VoxelOrder, DuplicateEdgesCountedOnce) {
  const std::vector<std::vector<DenseVoxelId>> rays = {{1, 2, 3}, {1, 2, 3},
                                                       {2, 3}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.edge_count, 2u);
}

TEST(VoxelOrder, TieBreakByDepth) {
  // Two independent chains; all else equal, closer voxels emit first.
  const std::vector<std::vector<DenseVoxelId>> rays = {{5, 6}, {1, 2}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.order.front(), 1);
}

TEST(VoxelOrder, CycleBreakingIsDeterministic) {
  // A cycle-heavy input (two 3-cycles sharing node 2) must resolve to the
  // same order and the same break count on every run: the VSU's tie-break
  // is a fixed hardware policy, not an artifact of iteration order.
  const std::vector<std::vector<DenseVoxelId>> rays = {
      {1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 5}, {5, 2}};
  const auto first = topological_voxel_order(rays, unit_depth);
  EXPECT_GT(first.cycle_breaks, 0u);
  EXPECT_EQ(first.order.size(), 5u);
  for (int rep = 0; rep < 10; ++rep) {
    const auto again = topological_voxel_order(rays, unit_depth);
    EXPECT_EQ(again.order, first.order);
    EXPECT_EQ(again.cycle_breaks, first.cycle_breaks);
    EXPECT_EQ(again.edge_count, first.edge_count);
  }
}

TEST(VoxelOrder, ConflictingRaysCannotBothBeRespected) {
  // Two rays that disagree on the order of {1, 2}: whatever the sorter
  // emits, order_respects_rays must flag the violated ray — for the
  // result's own order and for both hand-written candidate orders.
  const std::vector<std::vector<DenseVoxelId>> rays = {{1, 2}, {2, 1}};
  const auto r = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(r.cycle_breaks, 1u);
  EXPECT_FALSE(order_respects_rays(r.order, rays));
  EXPECT_FALSE(order_respects_rays({1, 2}, rays));
  EXPECT_FALSE(order_respects_rays({2, 1}, rays));
  // Each ray alone is satisfiable.
  EXPECT_TRUE(order_respects_rays({1, 2}, {rays[0]}));
  EXPECT_TRUE(order_respects_rays({2, 1}, {rays[1]}));
}

TEST(VoxelOrder, RespectHelperRejectsMissingNodes) {
  // An order that omits a voxel some ray pierces cannot respect that ray.
  const std::vector<std::vector<DenseVoxelId>> rays = {{1, 2, 3}};
  EXPECT_FALSE(order_respects_rays({1, 3}, rays));
  EXPECT_TRUE(order_respects_rays({1, 2, 3}, rays));
}

class VoxelOrderRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoxelOrderRandom, RandomRaySubsequencesRespected) {
  // Per-ray orders generated as subsequences of one global depth order are
  // always acyclic; the topological order must respect all of them with no
  // cycle breaks.
  Rng rng(GetParam());
  std::vector<std::vector<DenseVoxelId>> rays;
  const int n_vox = 40;
  for (int r = 0; r < 64; ++r) {
    std::vector<DenseVoxelId> ray;
    for (int v = 0; v < n_vox; ++v) {
      if (rng.uniform() < 0.3f) ray.push_back(v);
    }
    rays.push_back(std::move(ray));
  }
  const auto result = topological_voxel_order(rays, unit_depth);
  EXPECT_EQ(result.cycle_breaks, 0u);
  EXPECT_TRUE(order_respects_rays(result.order, rays));
  // Each node appears exactly once.
  std::vector<DenseVoxelId> sorted = result.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoxelOrderRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------- hierarchical filter --

gs::Camera test_camera(int w = 256, int h = 256) {
  return gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, w, h);
}

TEST(HierarchicalFilter, CoarseAcceptsCentered) {
  const gs::Camera cam = test_camera();
  const GroupRect rect{96, 96, 160, 160};  // center block
  EXPECT_TRUE(coarse_filter({0, 0, 0}, 0.1f, cam, rect));
}

TEST(HierarchicalFilter, CoarseRejectsOffscreen) {
  const gs::Camera cam = test_camera();
  const GroupRect rect{0, 0, 64, 64};
  // A small Gaussian whose projection lands in the far opposite corner of
  // the image (projected position checked explicitly).
  const Vec3f pos{-2.0f, -2.0f, 0.0f};
  const auto proj = gs::project_coarse(pos, 0.01f, cam);
  ASSERT_TRUE(proj.has_value());
  ASSERT_GT(proj->mean.x, 128.0f);
  EXPECT_FALSE(coarse_filter(pos, 0.01f, cam, rect));
}

TEST(HierarchicalFilter, CoarseNeverRejectsFineAccepted) {
  // The conservativeness invariant at the filter level, over random
  // Gaussians and random group rectangles.
  Rng rng(1234);
  const gs::Camera cam = test_camera();
  int fine_accepts = 0;
  for (int i = 0; i < 2000; ++i) {
    gs::Gaussian g;
    g.position = rng.uniform_vec3(-2.5f, 2.5f);
    g.scale = {rng.uniform(0.005f, 0.4f), rng.uniform(0.005f, 0.4f),
               rng.uniform(0.005f, 0.4f)};
    g.rotation = Quatf::from_axis_angle(rng.unit_sphere(), rng.uniform(0.0f, 6.28f));
    g.opacity = rng.uniform(0.1f, 0.99f);
    const float gx = rng.uniform(0.0f, 192.0f);
    const float gy = rng.uniform(0.0f, 192.0f);
    const GroupRect rect{gx, gy, gx + 64.0f, gy + 64.0f};
    const auto fine = fine_filter(g, cam, rect);
    if (!fine) continue;
    ++fine_accepts;
    EXPECT_TRUE(coarse_filter(g.position, g.max_scale(), cam, rect))
        << "coarse rejected a fine-accepted Gaussian (i=" << i << ")";
  }
  EXPECT_GT(fine_accepts, 50);
}

TEST(HierarchicalFilter, CoarseOutputsProjection) {
  const gs::Camera cam = test_camera();
  const GroupRect rect{0, 0, 256, 256};
  gs::CoarseProjection proj;
  ASSERT_TRUE(coarse_filter({0, 0, 0}, 0.1f, cam, rect, &proj));
  EXPECT_NEAR(proj.depth, 5.0f, 1e-3f);
  EXPECT_GT(proj.radius, 0.0f);
}

TEST(HierarchicalFilter, FilterReducesWork) {
  // On a realistic scene, the two-phase filter must reject a substantial
  // share of streamed Gaussians (paper: 76.3% filtered).
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = 20000;
  cfg.extent_min = {-4, -4, -4};
  cfg.extent_max = {4, 4, 4};
  cfg.seed = 3;
  const auto model = scene::generate_scene(cfg);

  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const auto r = render_streaming(scene, test_camera());
  EXPECT_GT(r.stats.filtered_fraction(), 0.3);
  EXPECT_LE(r.stats.fine_pass, r.stats.coarse_pass);
  EXPECT_LE(r.stats.coarse_pass, r.stats.gaussians_streamed);
}

// ------------------------------------------------------ streaming renderer --

scene::GeneratorConfig small_scene_cfg(std::uint64_t seed,
                                       std::size_t n = 8000) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.log_scale_mean = -4.6f;
  cfg.log_scale_std = 0.5f;
  cfg.seed = seed;
  return cfg;
}

// A prepared scene holds its render parameters once, as grouped columns:
// slot group_offset(v) + k is resident k of voxel v, and it must be exactly
// the record the scene renders — the source record for a raw scene, the
// VQ-decoded one otherwise — with the coarse max-scale of that record.
// Bitwise, because the out-of-core == resident golden compares bytes.
TEST(StreamingScene, ColumnsAreTheDecodedRecords) {
  static_assert(sizeof(gs::Gaussian) == 59 * sizeof(float),
                "memcmp below assumes an unpadded all-float record");
  const auto model = scene::generate_scene(small_scene_cfg(31, 3000));
  for (const bool use_vq : {false, true}) {
    SCOPED_TRACE(use_vq ? "vq" : "raw");
    StreamingConfig scfg;
    scfg.voxel_size = 1.0f;
    scfg.use_vq = use_vq;
    scfg.vq.scale_entries = 64;
    scfg.vq.rotation_entries = 64;
    scfg.vq.dc_entries = 64;
    scfg.vq.sh_entries = 32;
    scfg.vq.kmeans_iters = 4;
    scfg.vq.refine_iters = 1;
    const StreamingScene scene = StreamingScene::prepare(model, scfg);
    ASSERT_TRUE(scene.params_resident());
    ASSERT_EQ(scene.quantized() != nullptr, use_vq);
    const voxel::VoxelGrid& grid = scene.grid();
    const gs::GaussianColumns& cols = scene.group_columns();
    ASSERT_EQ(cols.size(), model.size());
    ASSERT_EQ(scene.group_offset(grid.voxel_count()), cols.size());
    for (DenseVoxelId v = 0; v < grid.voxel_count(); ++v) {
      const auto residents = grid.gaussians_in(v);
      ASSERT_EQ(scene.group_offset(v + 1) - scene.group_offset(v),
                residents.size());
      for (std::size_t k = 0; k < residents.size(); ++k) {
        const std::uint32_t mi = residents[k];
        const std::size_t slot = scene.group_offset(v) + k;
        const gs::Gaussian want =
            use_vq ? scene.quantized()->decode(mi) : model.gaussians[mi];
        const gs::Gaussian got = cols.gaussian(slot);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(gs::Gaussian)), 0)
            << "voxel " << v << " resident " << k;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(cols.max_scale[slot]),
                  std::bit_cast<std::uint32_t>(want.max_scale()))
            << "voxel " << v << " resident " << k;
      }
    }
  }
}

TEST(StreamingRenderer, SingleVoxelEqualsTileCentric) {
  // Exactness condition: with the whole scene in one voxel the streaming
  // pipeline degenerates to a global depth sort and must reproduce the
  // tile-centric image bit-for-bit (same blend math, same pixel sets).
  const auto model = scene::generate_scene(small_scene_cfg(21));
  const gs::Camera cam = test_camera();

  StreamingConfig scfg;
  scfg.voxel_size = 1000.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const auto streamed = render_streaming(scene, cam);
  const auto reference = render::render_tile_centric(model, cam);

  EXPECT_GT(metrics::psnr(streamed.image, reference.image), 60.0);
  EXPECT_EQ(streamed.stats.depth_order_violations, 0u);
  EXPECT_EQ(streamed.stats.cycle_breaks, 0u);
}

TEST(StreamingRenderer, NoBoundaryCrossersMeansNoViolations) {
  // Construct a model where no Gaussian's 3-sigma box crosses a voxel
  // boundary; streaming order then cannot produce depth inversions. The
  // grid origin floats with the model bounds, so crossers are culled
  // iteratively until the ratio is exactly zero.
  gs::GaussianModel model;
  Rng rng(5);
  const float vox = 1.0f;
  // Two near-point anchors pin the model bounds (and thus the grid origin)
  // so one culling pass suffices. Their 3-sigma extent (3e-6) is below the
  // grid's origin epsilon, so they never cross a boundary themselves.
  for (const float corner : {-3.2f, 3.2f}) {
    gs::Gaussian a;
    a.position = Vec3f::splat(corner);
    a.scale = Vec3f::splat(1e-6f);
    a.opacity = 0.5f;
    model.gaussians.push_back(a);
  }
  for (int i = 0; i < 5000; ++i) {
    gs::Gaussian g;
    g.position = rng.uniform_vec3(-3.0f, 3.0f);
    const float s = rng.uniform(0.005f, 0.04f);
    g.scale = {s, s * rng.uniform(0.5f, 1.0f), s * rng.uniform(0.5f, 1.0f)};
    g.rotation = Quatf::from_axis_angle(rng.unit_sphere(), rng.uniform(0.0f, 6.28f));
    g.opacity = rng.uniform(0.3f, 0.99f);
    g.sh[0] = gs::color_to_dc({rng.uniform(), rng.uniform(), rng.uniform()});
    model.gaussians.push_back(g);
  }
  {
    const voxel::VoxelGrid grid = voxel::VoxelGrid::build(model, vox);
    gs::GaussianModel kept;
    for (const auto& g : model.gaussians) {
      if (!grid.crosses_boundary(g)) kept.gaussians.push_back(g);
    }
    model = std::move(kept);
  }
  ASSERT_GT(model.size(), 1000u);

  StreamingConfig scfg;
  scfg.voxel_size = vox;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  ASSERT_NEAR(scene.grid().cross_boundary_ratio(model), 0.0, 1e-9);

  const gs::Camera cam = test_camera();
  const auto streamed = render_streaming(scene, cam);
  EXPECT_EQ(streamed.stats.depth_order_violations, 0u);

  // And the image matches the reference closely (only FP-order effects).
  const auto reference = render::render_tile_centric(model, cam);
  EXPECT_GT(metrics::psnr(streamed.image, reference.image), 45.0);
}

TEST(StreamingRenderer, ZeroIntermediateTraffic) {
  const auto model = scene::generate_scene(small_scene_cfg(22));
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const auto r = render_streaming(scene, test_camera());
  // The only DRAM traffic is the two model streams plus the frame write.
  EXPECT_EQ(r.stats.total_dram_bytes(),
            r.stats.coarse_read_bytes + r.stats.fine_read_bytes +
                r.stats.frame_write_bytes);
  EXPECT_EQ(r.stats.frame_write_bytes, 256u * 256u * 4u);
  // Trace aggregates agree with stats.
  EXPECT_EQ(r.trace.total_dram_bytes(), r.stats.total_dram_bytes());
  EXPECT_EQ(r.trace.total_residents(), r.stats.gaussians_streamed);
  EXPECT_EQ(r.trace.total_fine_pass(), r.stats.fine_pass);
  EXPECT_EQ(r.trace.total_blend_ops(), r.stats.blend_ops);
}

TEST(StreamingRenderer, TrafficMatchesLayoutRecords) {
  const auto model = scene::generate_scene(small_scene_cfg(23, 4000));
  for (const bool vq : {false, true}) {
    StreamingConfig scfg;
    scfg.voxel_size = 1.5f;
    scfg.use_vq = vq;
    scfg.vq.scale_entries = 64;  // keep the test fast
    scfg.vq.rotation_entries = 64;
    scfg.vq.dc_entries = 64;
    scfg.vq.sh_entries = 32;
    scfg.vq.kmeans_iters = 3;
    scfg.vq.max_train_samples = 2048;
    const StreamingScene scene = StreamingScene::prepare(model, scfg);
    const auto r = render_streaming(scene, test_camera(128, 128));
    EXPECT_EQ(r.stats.coarse_read_bytes,
              r.stats.gaussians_streamed * voxel::kCoarseRecordBytes);
    const std::uint64_t fine_rec =
        vq ? voxel::kFineRecordVqBytes : voxel::kFineRecordRawBytes;
    EXPECT_EQ(r.stats.fine_read_bytes, r.stats.coarse_pass * fine_rec);
  }
}

TEST(StreamingRenderer, DisablingCoarseFilterPassesEverything) {
  const auto model = scene::generate_scene(small_scene_cfg(24, 3000));
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  scfg.use_coarse_filter = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  const auto r = render_streaming(scene, test_camera(128, 128));
  EXPECT_EQ(r.stats.coarse_pass, r.stats.gaussians_streamed);
}

TEST(StreamingRenderer, CoarseFilterOverrideMatchesConfig) {
  const auto model = scene::generate_scene(small_scene_cfg(25, 3000));
  StreamingConfig with_cgf;
  with_cgf.voxel_size = 1.0f;
  with_cgf.use_vq = false;
  with_cgf.use_coarse_filter = true;
  const StreamingScene scene = StreamingScene::prepare(model, with_cgf);

  StreamingRenderOptions override_off;
  override_off.coarse_filter_override = false;
  const auto off = render_streaming(scene, test_camera(128, 128), override_off);
  EXPECT_EQ(off.stats.coarse_pass, off.stats.gaussians_streamed);

  const auto on = render_streaming(scene, test_camera(128, 128));
  EXPECT_LT(on.stats.coarse_pass, on.stats.gaussians_streamed);
  // The image is identical either way: the coarse filter only skips
  // Gaussians the fine filter rejects anyway.
  EXPECT_GT(metrics::psnr(on.image, off.image), 90.0);
}

TEST(StreamingRenderer, CgfImageIdenticalToNoCgf) {
  // Stronger version of the conservativeness property at image level on a
  // scene with large overlapping splats.
  scene::GeneratorConfig cfg = small_scene_cfg(26, 5000);
  cfg.log_scale_mean = -3.5f;  // bigger splats
  const auto model = scene::generate_scene(cfg);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  StreamingRenderOptions no_cgf;
  no_cgf.coarse_filter_override = false;
  const auto a = render_streaming(scene, test_camera(128, 128));
  const auto b = render_streaming(scene, test_camera(128, 128), no_cgf);
  EXPECT_EQ(a.image.pixels(), b.image.pixels());
  EXPECT_EQ(a.stats.fine_pass, b.stats.fine_pass);
}

TEST(StreamingRenderer, ViolatorCollection) {
  // A scene engineered to cross boundaries: large flat splats near voxel
  // faces.
  scene::GeneratorConfig cfg = small_scene_cfg(27, 6000);
  cfg.log_scale_mean = -2.8f;
  const auto model = scene::generate_scene(cfg);
  StreamingConfig scfg;
  scfg.voxel_size = 0.8f;
  scfg.use_vq = false;
  const StreamingScene scene = StreamingScene::prepare(model, scfg);
  StreamingRenderOptions opts;
  opts.collect_violators = true;
  const auto r = render_streaming(scene, test_camera(), opts);
  if (r.stats.depth_order_violations > 0) {
    EXPECT_FALSE(r.violators.empty());
    for (std::uint32_t v : r.violators) EXPECT_LT(v, model.size());
    // Sorted and unique.
    EXPECT_TRUE(std::is_sorted(r.violators.begin(), r.violators.end()));
    EXPECT_TRUE(std::adjacent_find(r.violators.begin(), r.violators.end()) ==
                r.violators.end());
  }
}

TEST(StreamingRenderer, RayStrideOneMatchesDefaultDiscovery) {
  const auto model = scene::generate_scene(small_scene_cfg(28, 5000));
  StreamingConfig a;
  a.voxel_size = 1.0f;
  a.use_vq = false;
  a.ray_stride = 1;
  StreamingConfig b = a;
  b.ray_stride = 8;
  const auto ra = render_streaming(StreamingScene::prepare(model, a), test_camera());
  const auto rb = render_streaming(StreamingScene::prepare(model, b), test_camera());
  // Sparse sampling must not lose visible content: images nearly identical.
  EXPECT_GT(metrics::psnr(ra.image, rb.image), 38.0);
  // But it must cost far fewer VSU steps.
  EXPECT_LT(rb.stats.dda_steps * 10, ra.stats.dda_steps);
}

TEST(StreamingRenderer, GroupSizeInvariance) {
  const auto model = scene::generate_scene(small_scene_cfg(29, 5000));
  StreamingConfig a;
  a.voxel_size = 1.0f;
  a.use_vq = false;
  a.group_size = 16;
  StreamingConfig b = a;
  b.group_size = 64;
  const auto ra = render_streaming(StreamingScene::prepare(model, a), test_camera());
  const auto rb = render_streaming(StreamingScene::prepare(model, b), test_camera());
  EXPECT_GT(metrics::psnr(ra.image, rb.image), 35.0);
  // Bigger groups stream fewer voxel visits.
  EXPECT_LT(rb.stats.voxel_visits, ra.stats.voxel_visits);
}

// ---------------------------------------------------------------- finetune --

TEST(Finetune, ReducesViolationsAndImprovesQuality) {
  // A crossing-heavy scene, small voxels: fine-tuning must shrink the error
  // Gaussian ratio substantially (paper Fig. 7: 2.3% -> 0.4%) while the
  // streaming-vs-tile consistency PSNR recovers.
  scene::GeneratorConfig cfg = small_scene_cfg(31, 6000);
  cfg.log_scale_mean = -2.8f;
  const auto model = scene::generate_scene(cfg);
  const gs::Camera cam = test_camera(192, 192);
  const auto reference = render::render_tile_centric(model, cam);

  StreamingConfig scfg;
  scfg.voxel_size = 0.7f;
  scfg.use_vq = false;

  FinetuneConfig ft;
  ft.iterations = 600;
  ft.refresh_every = 100;
  const FinetuneResult r =
      boundary_aware_finetune(model, scfg, cam, reference.image, ft);

  ASSERT_GE(r.history.size(), 3u);
  const auto& first = r.history.front();
  const auto& last = r.history.back();
  EXPECT_GT(first.violation_ratio, 0.0);
  EXPECT_LT(last.violation_ratio, first.violation_ratio * 0.7);
  EXPECT_GE(last.psnr_db, first.psnr_db);
  EXPECT_LT(last.cross_boundary_ratio, first.cross_boundary_ratio);
  // Positions must not move (the paper keeps geometry fixed).
  for (std::size_t i = 0; i < model.size(); i += 311) {
    EXPECT_EQ(r.model.gaussians[i].position, model.gaussians[i].position);
  }
  // Scales shrink only (violators) or stay fixed.
  for (std::size_t i = 0; i < model.size(); i += 97) {
    EXPECT_LE(r.model.gaussians[i].scale.max_component(),
              model.gaussians[i].scale.max_component() * 1.01f);
  }
}

TEST(Finetune, HistoryIterationsMonotone) {
  const auto model = scene::generate_scene(small_scene_cfg(32, 2000));
  const gs::Camera cam = test_camera(96, 96);
  const auto reference = render::render_tile_centric(model, cam);
  StreamingConfig scfg;
  scfg.voxel_size = 1.0f;
  FinetuneConfig ft;
  ft.iterations = 200;
  ft.refresh_every = 50;
  const FinetuneResult r =
      boundary_aware_finetune(model, scfg, cam, reference.image, ft);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_GT(r.history[i].iteration, r.history[i - 1].iteration);
  }
  EXPECT_EQ(r.history.back().iteration, 200);
}

TEST(Finetune, MinScaleFloorHolds) {
  const auto model = scene::generate_scene(small_scene_cfg(33, 1500));
  const gs::Camera cam = test_camera(96, 96);
  const auto reference = render::render_tile_centric(model, cam);
  StreamingConfig scfg;
  scfg.voxel_size = 0.5f;
  FinetuneConfig ft;
  ft.iterations = 400;
  ft.refresh_every = 100;
  ft.min_scale_factor = 0.5f;  // aggressive floor for the test
  const FinetuneResult r =
      boundary_aware_finetune(model, scfg, cam, reference.image, ft);
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_GE(r.model.gaussians[i].scale.x,
              model.gaussians[i].scale.x * 0.5f * 0.999f);
  }
}

}  // namespace
}  // namespace sgs::core
