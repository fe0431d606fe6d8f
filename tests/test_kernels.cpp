// Kernel-equivalence suite for the batched SoA kernels (gs/kernels.hpp):
//
//   - scalar bit-identity: the kScalar path must reproduce the legacy
//     per-record routines (project_coarse / project_gaussian / eval_sh /
//     gaussian_alpha + gs::blend) bit for bit — that is what keeps the
//     frozen pipeline goldens valid at scalar dispatch;
//   - scalar-vs-SIMD tolerance: every vector path must agree with scalar
//     within kSimdAbsTolerance on unit-range outputs (survivor sets equal,
//     projections and blended planes within tolerance), across random
//     Gaussians AND adversarial cases (near-zero scales, opacity at the
//     cull thresholds, degenerate quaternions, saturated pixels, group
//     sizes 0/1/7/8/9/64);
//   - slice-offset independence: results at any fixed ISA must not depend
//     on the record slice's offset into the column arena (the resident ==
//     out-of-core determinism requirement);
//   - gather_codebook_column: bitwise identical at every ISA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/simd.hpp"
#include "gs/blending.hpp"
#include "gs/camera.hpp"
#include "gs/gaussian_soa.hpp"
#include "gs/kernels.hpp"
#include "gs/projection.hpp"
#include "gs/sh.hpp"

namespace sgs::gs {
namespace {

gs::Camera test_camera() {
  return gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, 256, 256);
}

Gaussian random_gaussian(std::mt19937& rng) {
  std::uniform_real_distribution<float> pos(-3.0f, 3.0f);
  std::normal_distribution<float> logs(-2.0f, 0.5f);
  std::normal_distribution<float> qd(0.0f, 1.0f);
  std::uniform_real_distribution<float> op(0.0f, 1.0f);
  std::normal_distribution<float> shd(0.0f, 0.3f);
  Gaussian g;
  g.position = {pos(rng), pos(rng), pos(rng)};
  g.scale = {std::exp(logs(rng)), std::exp(logs(rng)), std::exp(logs(rng))};
  g.rotation = Quatf{qd(rng), qd(rng), qd(rng), qd(rng)};
  g.opacity = op(rng);
  for (int c = 0; c < kShCoeffCount; ++c) {
    g.sh[static_cast<std::size_t>(c)] = {shd(rng), shd(rng), shd(rng)};
  }
  return g;
}

GaussianColumns make_columns(const std::vector<Gaussian>& gs,
                             std::size_t pad_front = 0) {
  GaussianColumns cols;
  cols.resize(pad_front + gs.size());
  std::mt19937 rng(99);
  for (std::size_t k = 0; k < pad_front; ++k) {
    cols.set(k, random_gaussian(rng), 0.123f);  // garbage the slice must skip
  }
  for (std::size_t k = 0; k < gs.size(); ++k) {
    cols.set(pad_front + k, gs[k], gs[k].max_scale());
  }
  return cols;
}

const FilterRect kRect{96.0f, 96.0f, 160.0f, 160.0f};

// ------------------------------------------------------ scalar bit-identity

TEST(ScalarKernels, CoarseFilterMatchesLegacyRoutinesBitExact) {
  std::mt19937 rng(11);
  std::vector<Gaussian> gs;
  for (int i = 0; i < 500; ++i) gs.push_back(random_gaussian(rng));
  const GaussianColumns cols = make_columns(gs);
  const gs::Camera cam = test_camera();

  std::vector<std::uint32_t> got;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    coarse_filter_batch(cols, 0, gs.size(), cam, kRect, got);
  }
  std::vector<std::uint32_t> want;
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const auto proj = project_coarse(gs[i].position, gs[i].max_scale(), cam);
    if (proj && disc_intersects_rect(proj->mean, proj->radius, kRect.x0,
                                     kRect.y0, kRect.x1, kRect.y1)) {
      want.push_back(static_cast<std::uint32_t>(i));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(ScalarKernels, FineProjectionMatchesLegacyRoutinesBitExact) {
  std::mt19937 rng(12);
  std::vector<Gaussian> gs;
  for (int i = 0; i < 300; ++i) gs.push_back(random_gaussian(rng));
  const GaussianColumns cols = make_columns(gs);
  const gs::Camera cam = test_camera();

  std::vector<std::uint32_t> cand(gs.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    cand[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<FineSurvivor> got;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    fine_project_batch(cols, 0, cand, cam, kRect, got);
  }
  std::size_t j = 0;
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const auto proj = project_gaussian(gs[i], cam);
    if (!proj || !disc_intersects_rect(proj->mean, proj->radius, kRect.x0,
                                       kRect.y0, kRect.x1, kRect.y1)) {
      continue;
    }
    ASSERT_LT(j, got.size());
    EXPECT_EQ(got[j].local, i);
    EXPECT_EQ(got[j].proj.mean, proj->mean);
    EXPECT_EQ(got[j].proj.depth, proj->depth);
    EXPECT_EQ(got[j].proj.conic.a, proj->conic.a);
    EXPECT_EQ(got[j].proj.conic.b, proj->conic.b);
    EXPECT_EQ(got[j].proj.conic.c, proj->conic.c);
    EXPECT_EQ(got[j].proj.radius, proj->radius);
    EXPECT_EQ(got[j].proj.color, proj->color);
    EXPECT_EQ(got[j].proj.opacity, proj->opacity);
    ++j;
  }
  EXPECT_EQ(j, got.size());
}

TEST(ScalarKernels, BlendMatchesLegacyAccumulatorLoopBitExact) {
  std::mt19937 rng(13);
  const int row = 64;
  const std::size_t n_px = 64 * 64;
  BlendPlanes planes;
  planes.reset(n_px);
  std::vector<float> md(n_px, 0.0f);
  std::vector<gs::PixelAccumulator> acc(n_px);
  std::vector<float> md_ref(n_px, 0.0f);

  std::uniform_real_distribution<float> mean(0.0f, 64.0f);
  std::uniform_real_distribution<float> op(0.1f, 1.0f);
  std::uniform_real_distribution<float> col(0.0f, 1.0f);
  const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
  for (int s = 0; s < 40; ++s) {
    ProjectedGaussian p;
    p.mean = {mean(rng), mean(rng)};
    p.conic = {0.02f, 0.005f, 0.03f};
    p.radius = 25.0f;
    p.depth = 1.0f + 0.1f * static_cast<float>(s % 7);
    p.opacity = op(rng);
    p.color = {col(rng), col(rng), col(rng)};
    const PixelSpan span = splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
    if (span.x0 >= span.x1 || span.y0 >= span.y1) continue;

    const BlendCounters c = blend_survivor(planes, md, p, span, 0, 0, row);
    // Reference: the historical per-pixel loop over PixelAccumulators.
    std::uint64_t ref_ops = 0, ref_contrib = 0, ref_viol = 0;
    std::uint32_t ref_sat = 0;
    for (int py = span.y0; py < span.y1; ++py) {
      for (int px = span.x0; px < span.x1; ++px) {
        const auto pi = static_cast<std::size_t>(py * row + px);
        gs::PixelAccumulator& a = acc[pi];
        if (a.saturated()) continue;
        ++ref_ops;
        const float alpha = gaussian_alpha(
            p, {static_cast<float>(px) + 0.5f, static_cast<float>(py) + 0.5f});
        if (alpha <= 0.0f) continue;
        ++ref_contrib;
        if (p.depth < md_ref[pi] - 1e-6f) {
          ++ref_viol;
        } else {
          md_ref[pi] = p.depth;
        }
        gs::blend(a, p.color, alpha);
        if (a.saturated()) ++ref_sat;
      }
    }
    EXPECT_EQ(c.blend_ops, ref_ops);
    EXPECT_EQ(c.contributions, ref_contrib);
    EXPECT_EQ(c.violations, ref_viol);
    EXPECT_EQ(c.newly_saturated, ref_sat);
  }
  for (std::size_t pi = 0; pi < n_px; ++pi) {
    EXPECT_EQ(planes.r[pi], acc[pi].color.x);
    EXPECT_EQ(planes.g[pi], acc[pi].color.y);
    EXPECT_EQ(planes.b[pi], acc[pi].color.z);
    EXPECT_EQ(planes.t[pi], acc[pi].transmittance);
    EXPECT_EQ(md[pi], md_ref[pi]);
  }
}

// --------------------------------------------------- scalar-vs-SIMD property

#ifdef SGS_KERNELS_X86

// Adversarial Gaussians (near-zero scales, zero and threshold opacity,
// degenerate rotations, near-plane depths), cycled to fill any group size.
std::vector<Gaussian> adversarial_gaussians(std::size_t n) {
  std::mt19937 rng(7);
  std::vector<Gaussian> base;
  {
    Gaussian g = random_gaussian(rng);
    g.scale = {1e-12f, 1e-12f, 1e-12f};  // near-zero scales
    base.push_back(g);
  }
  {
    Gaussian g = random_gaussian(rng);
    g.opacity = 0.0f;  // culled by the min-opacity threshold
    base.push_back(g);
  }
  {
    Gaussian g = random_gaussian(rng);
    g.opacity = 1.0f;  // saturates pixels fast
    g.scale = {0.5f, 0.5f, 0.5f};
    base.push_back(g);
  }
  {
    Gaussian g = random_gaussian(rng);
    g.rotation = Quatf{0.0f, 0.0f, 0.0f, 0.0f};  // degenerate quaternion
    base.push_back(g);
  }
  {
    Gaussian g = random_gaussian(rng);
    g.position = {0.0f, 0.0f, -5.0f + 0.19f};  // right at the near plane
    base.push_back(g);
  }
  {
    Gaussian g = random_gaussian(rng);
    g.opacity = 1.0f / 255.0f;  // exactly the opacity cull threshold
    base.push_back(g);
  }
  std::vector<Gaussian> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

// The vector-only cases skip with this reason, rather than pass having
// compared nothing, on a host without AVX2+FMA or under SGS_FORCE_SCALAR.
constexpr const char* kNoVectorIsa = "no vector ISA to compare against scalar";

std::vector<simd::IsaLevel> vector_isas() {
  if (simd::detect_isa() != simd::IsaLevel::kAvx2) return {};
  return {simd::IsaLevel::kAvx2};
}

void run_filter_equivalence(const std::vector<Gaussian>& gs,
                            std::size_t pad_front) {
  const GaussianColumns cols = make_columns(gs, pad_front);
  const gs::Camera cam = test_camera();

  std::vector<std::uint32_t> scalar_idx;
  std::vector<FineSurvivor> scalar_fine;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    coarse_filter_batch(cols, pad_front, gs.size(), cam, kRect, scalar_idx);
    fine_project_batch(cols, pad_front, scalar_idx, cam, kRect, scalar_fine);
  }
  for (const simd::IsaLevel isa : vector_isas()) {
    const simd::ScopedForceIsa pin(isa);
    std::vector<std::uint32_t> idx;
    coarse_filter_batch(cols, pad_front, gs.size(), cam, kRect, idx);
    EXPECT_EQ(idx, scalar_idx) << "coarse @ " << simd::isa_name(isa);

    std::vector<FineSurvivor> fine;
    fine_project_batch(cols, pad_front, scalar_idx, cam, kRect, fine);
    ASSERT_EQ(fine.size(), scalar_fine.size())
        << "fine survivor count @ " << simd::isa_name(isa);
    for (std::size_t j = 0; j < fine.size(); ++j) {
      const auto& a = fine[j].proj;
      const auto& b = scalar_fine[j].proj;
      EXPECT_EQ(fine[j].local, scalar_fine[j].local);
      // Screen-space quantities scale with focal length: relative bound.
      const auto near_rel = [](float x, float y) {
        return std::abs(x - y) <=
               kSimdAbsTolerance * std::max(1.0f, std::abs(y));
      };
      EXPECT_TRUE(near_rel(a.mean.x, b.mean.x)) << a.mean.x << " " << b.mean.x;
      EXPECT_TRUE(near_rel(a.mean.y, b.mean.y));
      EXPECT_TRUE(near_rel(a.depth, b.depth));
      EXPECT_TRUE(near_rel(a.radius, b.radius));
      EXPECT_TRUE(near_rel(a.conic.a, b.conic.a));
      EXPECT_TRUE(near_rel(a.conic.b, b.conic.b));
      EXPECT_TRUE(near_rel(a.conic.c, b.conic.c));
      EXPECT_EQ(a.opacity, b.opacity);  // pure copy, never recomputed
      EXPECT_NEAR(a.color.x, b.color.x, kSimdAbsTolerance);
      EXPECT_NEAR(a.color.y, b.color.y, kSimdAbsTolerance);
      EXPECT_NEAR(a.color.z, b.color.z, kSimdAbsTolerance);
    }
  }
}

TEST(SimdEquivalence, FilterKernelsOnRandomGaussians) {
  if (vector_isas().empty()) GTEST_SKIP() << kNoVectorIsa;
  std::mt19937 rng(21);
  std::vector<Gaussian> gs;
  for (int i = 0; i < 1000; ++i) gs.push_back(random_gaussian(rng));
  run_filter_equivalence(gs, /*pad_front=*/0);
}

TEST(SimdEquivalence, FilterKernelsOnAdversarialGroupSizes) {
  if (vector_isas().empty()) GTEST_SKIP() << kNoVectorIsa;
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 64ul}) {
    run_filter_equivalence(adversarial_gaussians(n), /*pad_front=*/0);
  }
}

TEST(SimdEquivalence, ResultsIndependentOfSliceOffset) {
  // The same records viewed at slice offset 0 and offset 5 must produce
  // identical outputs at every ISA — lane blocking counts from the slice
  // start, never from pointer alignment (the OOC == resident requirement:
  // a cache entry is offset 0, a resident arena slice is arbitrary).
  std::mt19937 rng(22);
  std::vector<Gaussian> gs;
  for (int i = 0; i < 37; ++i) gs.push_back(random_gaussian(rng));
  const GaussianColumns at0 = make_columns(gs, 0);
  const GaussianColumns at5 = make_columns(gs, 5);
  const gs::Camera cam = test_camera();

  std::vector<simd::IsaLevel> isas{simd::IsaLevel::kScalar};
  for (const auto isa : vector_isas()) isas.push_back(isa);
  for (const simd::IsaLevel isa : isas) {
    const simd::ScopedForceIsa pin(isa);
    std::vector<std::uint32_t> i0, i5;
    coarse_filter_batch(at0, 0, gs.size(), cam, kRect, i0);
    coarse_filter_batch(at5, 5, gs.size(), cam, kRect, i5);
    EXPECT_EQ(i0, i5) << simd::isa_name(isa);

    std::vector<FineSurvivor> f0, f5;
    fine_project_batch(at0, 0, i0, cam, kRect, f0);
    fine_project_batch(at5, 5, i5, cam, kRect, f5);
    ASSERT_EQ(f0.size(), f5.size());
    for (std::size_t j = 0; j < f0.size(); ++j) {
      EXPECT_EQ(f0[j].local, f5[j].local);
      EXPECT_EQ(f0[j].proj.mean, f5[j].proj.mean);
      EXPECT_EQ(f0[j].proj.depth, f5[j].proj.depth);
      EXPECT_EQ(f0[j].proj.color, f5[j].proj.color);
      EXPECT_EQ(f0[j].proj.radius, f5[j].proj.radius);
    }
  }
}

TEST(SimdEquivalence, BlendWithinToleranceIncludingSaturation) {
  if (vector_isas().empty()) GTEST_SKIP() << kNoVectorIsa;
  std::mt19937 rng(24);
  std::uniform_real_distribution<float> mean(0.0f, 64.0f);
  std::uniform_real_distribution<float> col(0.0f, 1.0f);
  const int row = 64;
  const std::size_t n_px = 64 * 64;

  // A survivor stream with opaque records mixed in so pixels saturate
  // mid-run (the examined-mask path) and out-of-order depths (violations).
  std::vector<ProjectedGaussian> stream;
  for (int s = 0; s < 60; ++s) {
    ProjectedGaussian p;
    p.mean = {mean(rng), mean(rng)};
    p.conic = {0.02f, 0.005f, 0.03f};
    p.radius = 25.0f;
    p.depth = (s % 5 == 4) ? 0.5f : 1.0f + 0.05f * static_cast<float>(s);
    p.opacity = (s % 3 == 0) ? 0.999f : 0.4f;
    p.color = {col(rng), col(rng), col(rng)};
    stream.push_back(p);
  }

  BlendPlanes scalar_planes;
  scalar_planes.reset(n_px);
  std::vector<float> scalar_md(n_px, 0.0f);
  std::vector<BlendCounters> scalar_counters;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    for (const auto& p : stream) {
      const PixelSpan span = splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.x0 >= span.x1 || span.y0 >= span.y1) continue;
      scalar_counters.push_back(
          blend_survivor(scalar_planes, scalar_md, p, span, 0, 0, row));
    }
  }
  for (const simd::IsaLevel isa : vector_isas()) {
    const simd::ScopedForceIsa pin(isa);
    BlendPlanes planes;
    planes.reset(n_px);
    std::vector<float> md(n_px, 0.0f);
    std::size_t ci = 0;
    for (const auto& p : stream) {
      const PixelSpan span = splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.x0 >= span.x1 || span.y0 >= span.y1) continue;
      const BlendCounters c = blend_survivor(planes, md, p, span, 0, 0, row);
      ASSERT_LT(ci, scalar_counters.size());
      const BlendCounters& sc = scalar_counters[ci++];
      EXPECT_EQ(c.blend_ops, sc.blend_ops) << simd::isa_name(isa);
      EXPECT_EQ(c.contributions, sc.contributions);
      EXPECT_EQ(c.violations, sc.violations);
      EXPECT_EQ(c.newly_saturated, sc.newly_saturated);
    }
    for (std::size_t pi = 0; pi < n_px; ++pi) {
      EXPECT_NEAR(planes.r[pi], scalar_planes.r[pi], kSimdAbsTolerance);
      EXPECT_NEAR(planes.g[pi], scalar_planes.g[pi], kSimdAbsTolerance);
      EXPECT_NEAR(planes.b[pi], scalar_planes.b[pi], kSimdAbsTolerance);
      EXPECT_NEAR(planes.t[pi], scalar_planes.t[pi], kSimdAbsTolerance);
      EXPECT_EQ(md[pi], scalar_md[pi]);
    }
  }
}

TEST(SimdEquivalence, CodebookGatherBitIdentical) {
  if (vector_isas().empty()) GTEST_SKIP() << kNoVectorIsa;
  std::mt19937 rng(25);
  std::uniform_real_distribution<float> val(-2.0f, 2.0f);
  const std::size_t dim = 45, entries = 256;
  std::vector<float> cb(dim * entries);
  for (auto& v : cb) v = val(rng);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 64ul, 333ul}) {
    std::uniform_int_distribution<std::uint32_t> pick(0, entries - 1);
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) i = pick(rng);
    for (const std::size_t dst_stride : {1ul, 16ul}) {
      std::vector<float> scalar_dst(std::max<std::size_t>(1, n * dst_stride),
                                    -1.0f);
      std::vector<float> simd_dst(scalar_dst);
      {
        const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
        gather_codebook_column(scalar_dst.data(), dst_stride, cb.data(),
                               idx.data(), n, dim, 17);
      }
      for (const simd::IsaLevel isa : vector_isas()) {
        const simd::ScopedForceIsa pin(isa);
        std::vector<float> dst(simd_dst);
        gather_codebook_column(dst.data(), dst_stride, cb.data(), idx.data(),
                               n, dim, 17);
        EXPECT_EQ(dst, scalar_dst)
            << simd::isa_name(isa) << " n=" << n << " stride=" << dst_stride;
      }
    }
  }
}

#endif  // SGS_KERNELS_X86

// ------------------------------------------------------------ dispatch state

TEST(SimdDispatch, ForcingClampsToDetectedAndRestores) {
  const simd::IsaLevel detected = simd::detect_isa();
  EXPECT_EQ(simd::active_isa(), detected);
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::IsaLevel::kScalar);
    {
      // Forcing *up* never exceeds what the CPU supports.
      const simd::ScopedForceIsa up(simd::IsaLevel::kAvx2);
      EXPECT_LE(static_cast<int>(simd::active_isa()),
                static_cast<int>(detected));
    }
    EXPECT_EQ(simd::active_isa(), simd::IsaLevel::kScalar);  // restored
  }
  EXPECT_EQ(simd::active_isa(), detected);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::IsaLevel::kAvx2), "avx2");
}

}  // namespace
}  // namespace sgs::gs
