// Scalar reference kernels + runtime dispatchers.
//
// The scalar paths call the exact routines the pre-SIMD pipeline called
// (project_coarse / project_gaussian / eval_sh / gaussian_alpha) in the
// exact historical iteration order, so kScalar dispatch reproduces the
// frozen goldens bit for bit. The dispatchers re-read simd::active_isa()
// per call: a ScopedForceIsa around a render switches every kernel at once.
#include "gs/kernels.hpp"

namespace sgs::gs {

namespace {

void coarse_filter_batch_scalar(const GaussianColumns& cols, std::size_t first,
                                std::size_t count, const Camera& cam,
                                const FilterRect& rect,
                                std::vector<std::uint32_t>& out_idx) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = first + i;
    const auto proj = project_coarse({cols.px[k], cols.py[k], cols.pz[k]},
                                     cols.max_scale[k], cam);
    if (!proj) continue;
    if (!disc_intersects_rect(proj->mean, proj->radius, rect.x0, rect.y0,
                              rect.x1, rect.y1)) {
      continue;
    }
    out_idx.push_back(static_cast<std::uint32_t>(i));
  }
}

void fine_project_batch_scalar(const GaussianColumns& cols, std::size_t first,
                               std::span<const std::uint32_t> candidates,
                               const Camera& cam, const FilterRect& rect,
                               std::vector<FineSurvivor>& out) {
  for (const std::uint32_t local : candidates) {
    const Gaussian g = cols.gaussian(first + local);
    const auto proj = project_gaussian(g, cam);
    if (!proj) continue;
    if (!disc_intersects_rect(proj->mean, proj->radius, rect.x0, rect.y0,
                              rect.x1, rect.y1)) {
      continue;
    }
    out.push_back({*proj, local});
  }
}

BlendCounters blend_survivor_scalar(BlendPlanes& planes,
                                    std::vector<float>& max_depth,
                                    const ProjectedGaussian& proj,
                                    const PixelSpan& span, int px0, int py0,
                                    int row_w) {
  BlendCounters out;
  for (int py = span.y0; py < span.y1; ++py) {
    for (int px = span.x0; px < span.x1; ++px) {
      const auto pi =
          static_cast<std::size_t>((py - py0) * row_w + (px - px0));
      if (planes.t[pi] < kTransmittanceCutoff) continue;
      ++out.blend_ops;
      const float alpha = gaussian_alpha(
          proj,
          {static_cast<float>(px) + 0.5f, static_cast<float>(py) + 0.5f});
      if (alpha <= 0.0f) continue;
      out.contributed = true;
      ++out.contributions;
      float& md = max_depth[pi];
      if (proj.depth < md - 1e-6f) {
        ++out.violations;
        out.violated = true;
      } else {
        md = proj.depth;
      }
      // Same op order as gs::blend on a PixelAccumulator, split per plane.
      const float w = planes.t[pi] * alpha;
      planes.r[pi] += w * proj.color.x;
      planes.g[pi] += w * proj.color.y;
      planes.b[pi] += w * proj.color.z;
      planes.t[pi] *= (1.0f - alpha);
      if (planes.t[pi] < kTransmittanceCutoff) ++out.newly_saturated;
    }
  }
  return out;
}

void gather_codebook_column_scalar(float* dst, std::size_t dst_stride,
                                   const float* src, const std::uint32_t* idx,
                                   std::size_t n, std::size_t src_stride,
                                   std::size_t src_offset) {
  for (std::size_t k = 0; k < n; ++k) {
    dst[k * dst_stride] =
        src[static_cast<std::size_t>(idx[k]) * src_stride + src_offset];
  }
}

}  // namespace

void coarse_filter_batch(const GaussianColumns& cols, std::size_t first,
                         std::size_t count, const Camera& cam,
                         const FilterRect& rect,
                         std::vector<std::uint32_t>& out_idx) {
#ifdef SGS_KERNELS_X86
  if (simd::active_isa() == simd::IsaLevel::kAvx2) {
    return detail::coarse_filter_batch_avx2(cols, first, count, cam, rect,
                                            out_idx);
  }
#endif
  coarse_filter_batch_scalar(cols, first, count, cam, rect, out_idx);
}

void fine_project_batch(const GaussianColumns& cols, std::size_t first,
                        std::span<const std::uint32_t> candidates,
                        const Camera& cam, const FilterRect& rect,
                        std::vector<FineSurvivor>& out) {
#ifdef SGS_KERNELS_X86
  if (simd::active_isa() == simd::IsaLevel::kAvx2) {
    return detail::fine_project_batch_avx2(cols, first, candidates, cam, rect,
                                           out);
  }
#endif
  fine_project_batch_scalar(cols, first, candidates, cam, rect, out);
}

BlendCounters blend_survivor(BlendPlanes& planes, std::vector<float>& max_depth,
                             const ProjectedGaussian& proj,
                             const PixelSpan& span, int px0, int py0,
                             int row_w) {
#ifdef SGS_KERNELS_X86
  if (simd::active_isa() == simd::IsaLevel::kAvx2) {
    return detail::blend_survivor_avx2(planes, max_depth, proj, span, px0,
                                       py0, row_w);
  }
#endif
  return blend_survivor_scalar(planes, max_depth, proj, span, px0, py0, row_w);
}

void gather_codebook_column(float* dst, std::size_t dst_stride,
                            const float* src, const std::uint32_t* idx,
                            std::size_t n, std::size_t src_stride,
                            std::size_t src_offset) {
#ifdef SGS_KERNELS_X86
  if (simd::active_isa() == simd::IsaLevel::kAvx2) {
    return detail::gather_codebook_column_avx2(dst, dst_stride, src, idx, n,
                                               src_stride, src_offset);
  }
#endif
  gather_codebook_column_scalar(dst, dst_stride, src, idx, n, src_stride,
                                src_offset);
}

}  // namespace sgs::gs
