// Google-benchmark microbenchmarks of the library's hot kernels: SH
// evaluation, exact and coarse projection, alpha blending, DDA traversal,
// topological voxel ordering, k-means assignment, the batched SoA kernels
// at every dispatch level, and the two renderers on a small scene.
//
// Besides the google-benchmark suite, a self-timed comparison pass emits
// BENCH_kernels.json (flat key/value, schema in docs/BENCHMARKS.md): the
// per-kernel scalar-vs-SIMD and SoA-vs-AoS numbers CI smokes and uploads.
// The pass double-checks that scalar and SIMD outputs agree within
// kSimdAbsTolerance and exits non-zero when they do not, or when the host
// has no vector level to compare, so the smoke step is a correctness gate
// as well as a trend file.
//
//   ./bench_kernels [--out BENCH_kernels.json] [--json_only]
//                   [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/frame_plan.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "core/voxel_order.hpp"
#include "gs/blending.hpp"
#include "gs/gaussian_soa.hpp"
#include "gs/kernels.hpp"
#include "gs/projection.hpp"
#include "gs/sh.hpp"
#include "render/tile_renderer.hpp"
#include "scene/generator.hpp"
#include "voxel/dda.hpp"
#include "vq/kmeans.hpp"

namespace {

using namespace sgs;

gs::Camera bench_camera(int w = 256, int h = 256) {
  return gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, w, h);
}

gs::GaussianModel bench_model(std::size_t n) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = 99;
  return scene::generate_scene(cfg);
}

gs::GaussianColumns bench_columns(const gs::GaussianModel& model) {
  gs::GaussianColumns cols;
  cols.resize(model.gaussians.size());
  for (std::size_t k = 0; k < model.gaussians.size(); ++k) {
    cols.set(k, model.gaussians[k], model.gaussians[k].max_scale());
  }
  return cols;
}

const gs::FilterRect kBenchRect{64.0f, 64.0f, 192.0f, 192.0f};

void BM_ShEval(benchmark::State& state) {
  Rng rng(1);
  std::array<Vec3f, 16> coeffs;
  for (auto& c : coeffs) c = rng.normal_vec3(0.2f);
  Vec3f dir = rng.unit_sphere();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::eval_sh(coeffs, dir));
    // Defeat caching without drifting off the unit sphere: eval_sh is
    // specified over directions, and an unnormalized input would slowly
    // shift what is being measured (and its branch behavior) as the bench
    // runs longer.
    dir.x += 1e-3f;
    dir = dir.normalized();
  }
}
BENCHMARK(BM_ShEval);

void BM_ProjectGaussian(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::project_gaussian(model.gaussians[i], cam));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_ProjectGaussian);

void BM_ProjectCoarse(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& g = model.gaussians[i];
    benchmark::DoNotOptimize(gs::project_coarse(g.position, g.max_scale(), cam));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_ProjectCoarse);

void BM_AlphaBlend(benchmark::State& state) {
  gs::ProjectedGaussian g;
  g.mean = {128, 128};
  g.conic = Sym2f{0.02f, 0.005f, 0.03f};
  g.opacity = 0.8f;
  g.color = {0.7f, 0.3f, 0.2f};
  gs::PixelAccumulator acc;
  float x = 120.0f;
  for (auto _ : state) {
    const float a = gs::gaussian_alpha(g, {x, 126.0f});
    if (a > 0.0f) gs::blend(acc, g.color, a);
    benchmark::DoNotOptimize(acc);
    x = x < 136.0f ? x + 0.25f : 120.0f;
    if (acc.saturated()) acc = gs::PixelAccumulator{};
  }
}
BENCHMARK(BM_AlphaBlend);

// ---------------------------------------------------- batched SoA kernels ---
// Arg(0/1) pins dispatch to scalar/avx2; a level above the host cap is
// clamped by active_isa(), so on a host without AVX2+FMA the Arg(1) row
// just repeats scalar (its label says which level ran).

simd::IsaLevel arg_isa(const benchmark::State& state) {
  return static_cast<simd::IsaLevel>(state.range(0));
}

// AoS baseline of the coarse filter: the historical per-record loop over
// gs::Gaussian (236 B apart), for the SoA-vs-AoS layout comparison.
void BM_CoarseFilterAoS(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::vector<std::uint32_t> idx;
  for (auto _ : state) {
    idx.clear();
    for (std::size_t i = 0; i < model.gaussians.size(); ++i) {
      const auto& g = model.gaussians[i];
      const auto proj = gs::project_coarse(g.position, g.max_scale(), cam);
      if (proj && gs::disc_intersects_rect(proj->mean, proj->radius,
                                           kBenchRect.x0, kBenchRect.y0,
                                           kBenchRect.x1, kBenchRect.y1)) {
        idx.push_back(static_cast<std::uint32_t>(i));
      }
    }
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.gaussians.size()));
}
BENCHMARK(BM_CoarseFilterAoS);

void BM_CoarseFilterSoA(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::vector<std::uint32_t> idx;
  for (auto _ : state) {
    idx.clear();
    gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cols.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_CoarseFilterSoA)->Arg(0)->Arg(1);

void BM_FineProjectBatch(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  std::vector<std::uint32_t> cand;
  gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, cand);
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::vector<gs::FineSurvivor> out;
  for (auto _ : state) {
    out.clear();
    gs::fine_project_batch(cols, 0, cand, cam, kBenchRect, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cand.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_FineProjectBatch)->Arg(0)->Arg(1);

std::vector<gs::ProjectedGaussian> bench_survivor_stream(std::size_t n) {
  Rng rng(5);
  std::vector<gs::ProjectedGaussian> out;
  for (std::size_t s = 0; s < n; ++s) {
    gs::ProjectedGaussian p;
    p.mean = {rng.uniform(0.0f, 64.0f), rng.uniform(0.0f, 64.0f)};
    p.conic = Sym2f{0.02f, 0.005f, 0.03f};
    p.radius = 20.0f;
    p.depth = 1.0f + 0.01f * static_cast<float>(s);
    p.opacity = 0.35f;
    p.color = {0.7f, 0.3f, 0.2f};
    out.push_back(p);
  }
  return out;
}

void BM_BlendSurvivors(benchmark::State& state) {
  const auto stream = bench_survivor_stream(128);
  gs::BlendPlanes planes;
  std::vector<float> max_depth;
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    planes.reset(64 * 64);
    max_depth.assign(64 * 64, 0.0f);
    for (const auto& p : stream) {
      const gs::PixelSpan span =
          gs::splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.empty()) continue;
      ops += gs::blend_survivor(planes, max_depth, p, span, 0, 0, 64).blend_ops;
    }
    benchmark::DoNotOptimize(planes.r.data());
  }
  benchmark::DoNotOptimize(ops);
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_BlendSurvivors)->Arg(0)->Arg(1);

// Batched VQ decode primitive: three codebook columns gathered for a whole
// group of `n` records (scalar loop vs AVX2 gather). At dst_stride 16 they
// land in interleaved SH coefficient slots (the store's SH columns); at
// stride 1 in three contiguous columns (its scale and rotation columns).
struct GatherFixture {
  static constexpr std::size_t kDim = 45, kEntries = 256;
  std::vector<float> cb;
  std::vector<std::uint32_t> idx;
  std::vector<float> dst;

  explicit GatherFixture(std::size_t n)
      : cb(kDim * kEntries), idx(n), dst(n * gs::kShCoeffCount, 0.0f) {
    Rng rng(17);
    for (auto& v : cb) v = rng.normal();
    for (auto& i : idx) {
      i = static_cast<std::uint32_t>(rng.uniform_index(kEntries));
    }
  }
  void run(std::size_t dst_stride) {
    const std::size_t n = idx.size();
    for (std::size_t c = 0; c < 3; ++c) {
      float* col = dst.data() + (dst_stride == 1 ? c * n : c);
      gs::gather_codebook_column(col, dst_stride, cb.data(), idx.data(), n,
                                 kDim, c);
    }
  }
};

// Args: (isa, dst_stride).
void BM_VqGatherColumn(benchmark::State& state) {
  GatherFixture fx(4096);
  const auto dst_stride = static_cast<std::size_t>(state.range(1));
  const simd::ScopedForceIsa pin(arg_isa(state));
  for (auto _ : state) {
    fx.run(dst_stride);
    benchmark::DoNotOptimize(fx.dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(3 * fx.idx.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_VqGatherColumn)->ArgsProduct({{0, 1}, {1, 16}});

void BM_DdaTraversal(benchmark::State& state) {
  const auto model = bench_model(20000);
  const auto grid = voxel::VoxelGrid::build(model, 0.5f);
  const auto cam = bench_camera();
  Rng rng(3);
  for (auto _ : state) {
    const gs::Ray ray =
        cam.pixel_ray(rng.uniform(0.0f, 256.0f), rng.uniform(0.0f, 256.0f));
    benchmark::DoNotOptimize(voxel::intersected_voxels(ray, grid));
  }
}
BENCHMARK(BM_DdaTraversal);

void BM_TopologicalOrder(benchmark::State& state) {
  // 64 rays over a 64-voxel chain with random subsequences.
  Rng rng(7);
  std::vector<std::vector<voxel::DenseVoxelId>> rays;
  for (int r = 0; r < 64; ++r) {
    std::vector<voxel::DenseVoxelId> ray;
    for (int v = 0; v < 64; ++v) {
      if (rng.uniform() < 0.4f) ray.push_back(v);
    }
    rays.push_back(std::move(ray));
  }
  auto depth = [](voxel::DenseVoxelId v) { return static_cast<float>(v); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::topological_voxel_order(rays, depth));
  }
}
BENCHMARK(BM_TopologicalOrder);

void BM_KMeansAssign(benchmark::State& state) {
  Rng rng(11);
  const std::size_t dim = 45;
  std::vector<float> centroids(512 * dim);
  for (auto& v : centroids) v = rng.normal();
  std::vector<float> query(dim);
  for (auto& v : query) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vq::nearest_centroid(centroids, dim, query));
    query[0] += 1e-5f;
  }
}
BENCHMARK(BM_KMeansAssign);

void BM_TileRenderFrame(benchmark::State& state) {
  const auto model = bench_model(static_cast<std::size_t>(state.range(0)));
  const auto cam = bench_camera(192, 192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::render_tile_centric(model, cam));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TileRenderFrame)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_StreamingRenderFrame(benchmark::State& state) {
  const auto model = bench_model(static_cast<std::size_t>(state.range(0)));
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  const auto scene = core::StreamingScene::prepare(model, cfg);
  const auto cam = bench_camera(192, 192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::render_streaming(scene, cam));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamingRenderFrame)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

// Multi-group stress: small pixel groups put the load on the per-group
// pipeline (scratch-arena reuse + pool scheduling) rather than the blending
// inner loop — the path the staged refactor targets.
void BM_StreamingRenderFrameFineGroups(benchmark::State& state) {
  const auto model = bench_model(20000);
  core::StreamingConfig cfg;
  cfg.voxel_size = 0.5f;
  cfg.use_vq = false;
  cfg.group_size = static_cast<int>(state.range(0));
  const auto scene = core::StreamingScene::prepare(model, cfg);
  const auto cam = bench_camera(256, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::render_streaming(scene, cam));
  }
}
BENCHMARK(BM_StreamingRenderFrameFineGroups)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// Per-frame voxel-table build (the FramePlan layer on its own).
void BM_FramePlanBuild(benchmark::State& state) {
  const auto model = bench_model(20000);
  const auto grid = voxel::VoxelGrid::build(model, 0.5f);
  const auto cam = bench_camera();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FramePlan::build(grid, cam, 32));
  }
}
BENCHMARK(BM_FramePlanBuild);

// Frame-sequence rendering under headset-like creep: nearly every frame
// reuses the cached plan, so the per-frame cost is the staged pipeline
// alone (no table rebuild).
void BM_StreamingSequenceCreep(benchmark::State& state) {
  const auto model = bench_model(20000);
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  const auto scene = core::StreamingScene::prepare(model, cfg);
  core::SequenceRenderer sequence(scene);
  float x = 0.0f;
  for (auto _ : state) {
    const auto cam = gs::Camera::look_at({x, 0, -5}, {0, 0, 0}, {0, 1, 0},
                                         0.8f, 192, 192);
    benchmark::DoNotOptimize(sequence.render(cam));
    x += 1e-4f;  // creep well inside the reuse envelope
  }
}
BENCHMARK(BM_StreamingSequenceCreep)->Unit(benchmark::kMillisecond);

// ------------------------------------------------ BENCH_kernels.json pass ---

// Best-of-k wall time of fn() in milliseconds (k small: these workloads are
// hundreds of microseconds each, and min-of-k rejects scheduler noise).
template <typename Fn>
double best_ms(Fn&& fn, int reps = 7) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Times the scalar-vs-SIMD comparison pass, verifies the tolerance contract
// on the way, and writes the flat JSON. Returns false on a kernel mismatch.
bool emit_kernels_json(const std::string& out_path) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  const simd::IsaLevel top = simd::detect_isa();

  // SoA-vs-AoS + scalar-vs-SIMD coarse filter.
  std::vector<std::uint32_t> idx_aos, idx_scalar, idx_simd;
  const double aos_ms = best_ms([&] {
    idx_aos.clear();
    for (std::size_t i = 0; i < model.gaussians.size(); ++i) {
      const auto& g = model.gaussians[i];
      const auto proj = gs::project_coarse(g.position, g.max_scale(), cam);
      if (proj && gs::disc_intersects_rect(proj->mean, proj->radius,
                                           kBenchRect.x0, kBenchRect.y0,
                                           kBenchRect.x1, kBenchRect.y1)) {
        idx_aos.push_back(static_cast<std::uint32_t>(i));
      }
    }
  });
  double coarse_scalar_ms, coarse_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    coarse_scalar_ms = best_ms([&] {
      idx_scalar.clear();
      gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx_scalar);
    });
  }
  {
    const simd::ScopedForceIsa pin(top);
    coarse_simd_ms = best_ms([&] {
      idx_simd.clear();
      gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx_simd);
    });
  }
  bool match = (idx_scalar == idx_aos) && (idx_simd == idx_scalar);

  // Fine projection over the coarse survivors.
  std::vector<gs::FineSurvivor> fine_scalar, fine_simd;
  double fine_scalar_ms, fine_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    fine_scalar_ms = best_ms([&] {
      fine_scalar.clear();
      gs::fine_project_batch(cols, 0, idx_scalar, cam, kBenchRect, fine_scalar);
    });
  }
  {
    const simd::ScopedForceIsa pin(top);
    fine_simd_ms = best_ms([&] {
      fine_simd.clear();
      gs::fine_project_batch(cols, 0, idx_scalar, cam, kBenchRect, fine_simd);
    });
  }
  match = match && fine_simd.size() == fine_scalar.size();
  const auto near_rel = [](float x, float y) {
    return std::abs(x - y) <=
           gs::kSimdAbsTolerance * std::max(1.0f, std::abs(y));
  };
  for (std::size_t j = 0; match && j < fine_simd.size(); ++j) {
    match = fine_simd[j].local == fine_scalar[j].local &&
            near_rel(fine_simd[j].proj.mean.x, fine_scalar[j].proj.mean.x) &&
            near_rel(fine_simd[j].proj.depth, fine_scalar[j].proj.depth) &&
            near_rel(fine_simd[j].proj.radius, fine_scalar[j].proj.radius);
  }

  // Alpha blending of a survivor stream into one 64x64 group.
  const auto stream = bench_survivor_stream(128);
  gs::BlendPlanes planes_scalar, planes_simd;
  std::vector<float> md;
  const auto blend_pass = [&](gs::BlendPlanes& planes) {
    planes.reset(64 * 64);
    md.assign(64 * 64, 0.0f);
    for (const auto& p : stream) {
      const gs::PixelSpan span =
          gs::splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.empty()) continue;
      gs::blend_survivor(planes, md, p, span, 0, 0, 64);
    }
  };
  double blend_scalar_ms, blend_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    blend_scalar_ms = best_ms([&] { blend_pass(planes_scalar); });
  }
  {
    const simd::ScopedForceIsa pin(top);
    blend_simd_ms = best_ms([&] { blend_pass(planes_simd); });
  }
  for (std::size_t pi = 0; match && pi < planes_scalar.size(); ++pi) {
    match = std::abs(planes_simd.r[pi] - planes_scalar.r[pi]) <=
                gs::kSimdAbsTolerance &&
            std::abs(planes_simd.t[pi] - planes_scalar.t[pi]) <=
                gs::kSimdAbsTolerance;
  }

  // Batched VQ codebook gather (bitwise contract), at both destination
  // strides the store decodes with. Each pair runs before `&& match`, so
  // both rows are timed even after an earlier mismatch.
  const auto gather_pair = [&](std::size_t dst_stride, double& scalar_ms,
                               double& simd_ms) {
    GatherFixture scalar_fx(4096), simd_fx(4096);
    {
      const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
      scalar_ms = best_ms([&] { scalar_fx.run(dst_stride); });
    }
    {
      const simd::ScopedForceIsa pin(top);
      simd_ms = best_ms([&] { simd_fx.run(dst_stride); });
    }
    return std::memcmp(scalar_fx.dst.data(), simd_fx.dst.data(),
                       scalar_fx.dst.size() * sizeof(float)) == 0;
  };
  double gather_scalar_ms, gather_simd_ms, gather1_scalar_ms, gather1_simd_ms;
  match = gather_pair(gs::kShCoeffCount, gather_scalar_ms, gather_simd_ms) &&
          match;
  match = gather_pair(1, gather1_scalar_ms, gather1_simd_ms) && match;

  const auto speedup = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"isa_detected\": \"" << simd::isa_name(top) << "\",\n"
       << "  \"records\": " << cols.size() << ",\n"
       << "  \"coarse_aos_ms\": " << aos_ms << ",\n"
       << "  \"coarse_scalar_ms\": " << coarse_scalar_ms << ",\n"
       << "  \"coarse_simd_ms\": " << coarse_simd_ms << ",\n"
       << "  \"coarse_soa_vs_aos_speedup\": "
       << speedup(aos_ms, coarse_scalar_ms) << ",\n"
       << "  \"coarse_simd_speedup\": "
       << speedup(coarse_scalar_ms, coarse_simd_ms) << ",\n"
       << "  \"fine_scalar_ms\": " << fine_scalar_ms << ",\n"
       << "  \"fine_simd_ms\": " << fine_simd_ms << ",\n"
       << "  \"fine_simd_speedup\": " << speedup(fine_scalar_ms, fine_simd_ms)
       << ",\n"
       << "  \"blend_scalar_ms\": " << blend_scalar_ms << ",\n"
       << "  \"blend_simd_ms\": " << blend_simd_ms << ",\n"
       << "  \"blend_simd_speedup\": "
       << speedup(blend_scalar_ms, blend_simd_ms) << ",\n"
       << "  \"vq_gather_scalar_ms\": " << gather_scalar_ms << ",\n"
       << "  \"vq_gather_simd_ms\": " << gather_simd_ms << ",\n"
       << "  \"vq_gather_simd_speedup\": "
       << speedup(gather_scalar_ms, gather_simd_ms) << ",\n"
       << "  \"vq_gather_stride1_scalar_ms\": " << gather1_scalar_ms << ",\n"
       << "  \"vq_gather_stride1_simd_ms\": " << gather1_simd_ms << ",\n"
       << "  \"vq_gather_stride1_simd_speedup\": "
       << speedup(gather1_scalar_ms, gather1_simd_ms) << ",\n"
       << "  \"kernels_match\": " << (match ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote %s (isa %s, kernels_match %s)\n", out_path.c_str(),
              simd::isa_name(top), match ? "true" : "false");
  return match;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool json_only = false;
  // Peel our own flags before google-benchmark parses the rest.
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json_only") {
      json_only = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;

  // Without a vector level the pass would compare scalar against itself
  // and report a match that checked nothing.
  if (simd::detect_isa() == simd::IsaLevel::kScalar) {
    std::fprintf(stderr, "FAILED: no vector ISA to compare (host lacks "
                         "AVX2+FMA, SGS_FORCE_SCALAR is set, or the build "
                         "has -DSGS_SIMD=OFF)\n");
    return 1;
  }
  if (!emit_kernels_json(out_path)) {
    std::fprintf(stderr, "FAILED: scalar-vs-SIMD kernel outputs diverged "
                         "beyond the tolerance contract\n");
    return 1;
  }
  if (json_only) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
