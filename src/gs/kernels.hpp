// Batched per-Gaussian kernels over GaussianColumns, with runtime ISA
// dispatch (common/simd.hpp). These are the three hot loops of the streaming
// pipeline — the software analogue of the paper's CFU/FFU datapaths:
//
//   (1) coarse_filter_batch — the 8-wide coarse frustum-vs-rect test over
//       the {x, y, z, s_max} columns (16 B/record, exactly the CFU stream).
//   (2) fine_project_batch  — covariance construction, EWA projection,
//       conic/radius/cull math and degree-3 SH color over the coarse
//       survivors.
//   (3) blend_survivor      — per-pixel-run alpha accumulation into SoA
//       accumulator planes.
// Plus gather_codebook_column, the batched VQ decode primitive (8 records
// per codebook lookup under AVX2).
//
// Equivalence contract (tested by tests/test_kernels.cpp, documented in
// docs/ARCHITECTURE.md "SIMD dispatch & layout"):
//   - The kScalar path calls the exact scalar routines of projection.cpp /
//     sh.cpp / blending.cpp in the exact historical order: survivor sets,
//     counters, and blended pixels are bit-identical to the pre-SIMD
//     pipeline.
//   - Vector paths may differ from scalar only by floating-point
//     reassociation/FMA and a polynomial exp() in the blender; per-kernel
//     outputs agree within kSimdAbsTolerance on unit-range quantities, and
//     whole-frame images stay within the golden PSNR bound.
//   - gather_codebook_column is pure data movement: bitwise identical at
//     every ISA.
//   - At any fixed dispatch level, results are deterministic and
//     independent of pointer alignment and of the slice offset `first`
//     (lane blocking counts from the slice start; tails are masked).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "gs/blending.hpp"
#include "gs/camera.hpp"
#include "gs/gaussian_soa.hpp"
#include "gs/projection.hpp"

namespace sgs::gs {

// Absolute tolerance the scalar-vs-vector property tests hold per-kernel
// outputs to, on unit-range quantities (colors, alphas, transmittance).
// Screen-space means/radii scale with focal length and are compared at
// kSimdAbsTolerance * max(1, |value|) instead.
inline constexpr float kSimdAbsTolerance = 2e-4f;

// Pixel-space rectangle [x0, x1) x [y0, y1) of one pixel group (mirrors
// core::GroupRect without depending on core/).
struct FilterRect {
  float x0 = 0.0f;
  float y0 = 0.0f;
  float x1 = 0.0f;
  float y1 = 0.0f;
};

// (1) Coarse filter over records [first, first + count) of `cols`: appends
// the 0-based local indices of records whose conservative projected disc
// (project_coarse) intersects `rect`, in ascending order.
void coarse_filter_batch(const GaussianColumns& cols, std::size_t first,
                         std::size_t count, const Camera& cam,
                         const FilterRect& rect,
                         std::vector<std::uint32_t>& out_idx);

// A record that survived the fine phase: its exact projection plus its
// local index within the group slice.
struct FineSurvivor {
  ProjectedGaussian proj;
  std::uint32_t local = 0;
};

// (2) Fine projection over `candidates` (local indices into the slice
// at `first`): exact covariance/conic/radius math, near-plane, opacity and
// degeneracy culls, the rect intersection test, and SH color evaluation for
// the survivors. Appends survivors in candidate order.
void fine_project_batch(const GaussianColumns& cols, std::size_t first,
                        std::span<const std::uint32_t> candidates,
                        const Camera& cam, const FilterRect& rect,
                        std::vector<FineSurvivor>& out);

// (3) SoA accumulator planes for one pixel group: the blend stage's
// compositing state, one float plane per channel plus transmittance.
// Replaces the AoS PixelAccumulator array so the blender updates 8 pixels
// per vector op.
struct BlendPlanes {
  std::vector<float> r, g, b, t;

  void reset(std::size_t n_px) {
    r.assign(n_px, 0.0f);
    g.assign(n_px, 0.0f);
    b.assign(n_px, 0.0f);
    t.assign(n_px, 1.0f);
  }
  std::size_t size() const { return t.size(); }
  bool saturated(std::size_t pi) const {
    return t[pi] < kTransmittanceCutoff;
  }
};

// What one survivor's blend pass did (the BlendStage folds these into
// StreamingStats and the per-voxel work item).
struct BlendCounters {
  std::uint64_t blend_ops = 0;       // pixels examined (unsaturated)
  std::uint64_t contributions = 0;   // alpha > 0 blends
  std::uint64_t violations = 0;      // out-of-depth-order contributions
  std::uint32_t newly_saturated = 0; // pixels that crossed the cutoff
  bool contributed = false;
  bool violated = false;
};

// Blends one projected survivor over `span` into the planes, replicating
// the reference per-pixel semantics exactly at kScalar (saturation skip,
// min-alpha and alpha-clamp, the 1e-6 depth-order epsilon against
// max_depth). `span` must lie within the group rect whose top-left pixel
// is (px0, py0) and whose row width is row_w.
BlendCounters blend_survivor(BlendPlanes& planes,
                             std::vector<float>& max_depth,
                             const ProjectedGaussian& proj,
                             const PixelSpan& span, int px0, int py0,
                             int row_w);

// Batched VQ codebook gather: for k in [0, n),
//   dst[k * dst_stride] = src[idx[k] * src_stride + src_offset].
// The decode loop's inner primitive — one codebook column filled for a whole
// group per call (8 records per AVX2 gather). Pure copies: bitwise
// identical at every ISA.
void gather_codebook_column(float* dst, std::size_t dst_stride,
                            const float* src, const std::uint32_t* idx,
                            std::size_t n, std::size_t src_stride,
                            std::size_t src_offset);

#if (defined(__x86_64__) || defined(__i386__)) && !defined(SGS_NO_SIMD)
#define SGS_KERNELS_X86 1
// Vector implementations (kernels_x86.cpp), selected by the dispatchers in
// kernels.cpp. Exposed for the per-ISA equivalence tests; call the
// dispatching entry points above everywhere else.
namespace detail {
void coarse_filter_batch_avx2(const GaussianColumns& cols, std::size_t first,
                              std::size_t count, const Camera& cam,
                              const FilterRect& rect,
                              std::vector<std::uint32_t>& out_idx);
void fine_project_batch_avx2(const GaussianColumns& cols, std::size_t first,
                             std::span<const std::uint32_t> candidates,
                             const Camera& cam, const FilterRect& rect,
                             std::vector<FineSurvivor>& out);
BlendCounters blend_survivor_avx2(BlendPlanes& planes,
                                  std::vector<float>& max_depth,
                                  const ProjectedGaussian& proj,
                                  const PixelSpan& span, int px0, int py0,
                                  int row_w);
void gather_codebook_column_avx2(float* dst, std::size_t dst_stride,
                                 const float* src, const std::uint32_t* idx,
                                 std::size_t n, std::size_t src_stride,
                                 std::size_t src_offset);
}  // namespace detail
#endif

}  // namespace sgs::gs
