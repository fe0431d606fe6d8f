// AVX2 kernel implementations. Compiled into every x86 build (unless
// -DSGS_SIMD=OFF) without per-file -mavx2 flags: each function carries a
// target("avx2,fma") attribute, so the TU stays runnable on hosts without
// AVX2 and the dispatcher (kernels.cpp) alone decides what executes.
//
// Determinism rules every kernel here follows:
//   - lane blocking counts from the logical start of the slice (i = 0, 8,
//     16, ...), never from pointer alignment, so a cache entry (first == 0)
//     and a resident slice (first == arbitrary) with equal bytes produce
//     equal results;
//   - loads are unaligned; tails use maskload/maskstore (the gather drops to
//     per-record copies at a position fixed by the count) — no reads past
//     the column vectors (the libstdc++ ASan container annotations would
//     flag them).
// Numeric deltas vs the scalar reference come only from FMA contraction,
// reassociation of small dot products, and the polynomial exp() in the
// blender — the tolerance contract tests/test_kernels.cpp enforces.
#include "gs/kernels.hpp"

#ifdef SGS_KERNELS_X86

#include <immintrin.h>

#include <cmath>

#include "gs/sh.hpp"

#define SGS_AVX2 __attribute__((target("avx2,fma")))

namespace sgs::gs::detail {

namespace {

// SH basis constants (same literals as sh.cpp / the reference rasterizer).
constexpr float kC0 = 0.28209479177387814f;
constexpr float kC1 = 0.4886025119029199f;
constexpr float kC2[5] = {1.0925484305920792f, -1.0925484305920792f,
                          0.31539156525252005f, -1.0925484305920792f,
                          0.5462742152960396f};
constexpr float kC3[7] = {-0.5900435899266435f, 2.890611442640554f,
                          -0.4570457994644658f, 0.3731763325901154f,
                          -0.4570457994644658f, 1.445305721320277f,
                          -0.5900435899266435f};

// Degree-3 basis for a (not necessarily unit) view direction, matching
// sh_basis() including its normalize-or-zero behavior.
inline void sh_basis16(Vec3f dir, float* b) {
  const Vec3f d = dir.normalized();
  const float x = d.x, y = d.y, z = d.z;
  const float xx = x * x, yy = y * y, zz = z * z;
  b[0] = kC0;
  b[1] = -kC1 * y;
  b[2] = kC1 * z;
  b[3] = -kC1 * x;
  b[4] = kC2[0] * (x * y);
  b[5] = kC2[1] * (y * z);
  b[6] = kC2[2] * (2.0f * zz - xx - yy);
  b[7] = kC2[3] * (x * z);
  b[8] = kC2[4] * (xx - yy);
  b[9] = kC3[0] * y * (3.0f * xx - yy);
  b[10] = kC3[1] * (x * y) * z;
  b[11] = kC3[2] * y * (4.0f * zz - xx - yy);
  b[12] = kC3[3] * z * (2.0f * zz - 3.0f * xx - 3.0f * yy);
  b[13] = kC3[4] * x * (4.0f * zz - xx - yy);
  b[14] = kC3[5] * z * (xx - yy);
  b[15] = kC3[6] * x * (xx - 3.0f * yy);
}

alignas(32) constexpr std::int32_t kTailMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

SGS_AVX2 inline __m256i tail_mask8(int lanes) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMaskTable + (8 - lanes)));
}

SGS_AVX2 inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// Cephes-style exp, |rel err| < 2^-22 over the blender's range (x <= 0).
SGS_AVX2 inline __m256 exp256_ps(__m256 x) {
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.336544f));
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
  const __m256 fx = _mm256_round_ps(
      _mm256_mul_ps(x, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_ps(fx, kLn2Hi, x);
  x = _mm256_fnmadd_ps(fx, kLn2Lo, x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  __m256i n = _mm256_cvtps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// View-dependent color of one record: scalar basis, vector coefficient
// dots over the channel-contiguous SH columns (two FMAs per channel).
SGS_AVX2 inline Vec3f eval_sh_record_avx2(const GaussianColumns& cols,
                                          std::size_t rec, Vec3f dir) {
  alignas(32) float basis[16];
  sh_basis16(dir, basis);
  const __m256 b0 = _mm256_load_ps(basis);
  const __m256 b1 = _mm256_load_ps(basis + 8);
  const std::size_t base = rec * static_cast<std::size_t>(kShCoeffCount);
  const float* cr = cols.sh_r.data() + base;
  const float* cg = cols.sh_g.data() + base;
  const float* cb = cols.sh_b.data() + base;
  const float r = hsum8(_mm256_fmadd_ps(_mm256_loadu_ps(cr + 8), b1,
                                        _mm256_mul_ps(_mm256_loadu_ps(cr), b0)));
  const float g = hsum8(_mm256_fmadd_ps(_mm256_loadu_ps(cg + 8), b1,
                                        _mm256_mul_ps(_mm256_loadu_ps(cg), b0)));
  const float b = hsum8(_mm256_fmadd_ps(_mm256_loadu_ps(cb + 8), b1,
                                        _mm256_mul_ps(_mm256_loadu_ps(cb), b0)));
  return {std::max(0.0f, r + 0.5f), std::max(0.0f, g + 0.5f),
          std::max(0.0f, b + 0.5f)};
}

}  // namespace

// ------------------------------------------------------------ coarse filter

SGS_AVX2 void coarse_filter_avx2_impl(const GaussianColumns& cols,
                                      std::size_t first, std::size_t count,
                                      const Camera& cam,
                                      const FilterRect& rect,
                                      std::vector<std::uint32_t>& out_idx) {
  const float* px = cols.px.data() + first;
  const float* py = cols.py.data() + first;
  const float* pz = cols.pz.data() + first;
  const float* ms = cols.max_scale.data() + first;
  const Mat3f& rot = cam.rotation();
  const Vec3f cp = cam.position();
  const __m256 w00 = _mm256_set1_ps(rot(0, 0)), w01 = _mm256_set1_ps(rot(0, 1)),
               w02 = _mm256_set1_ps(rot(0, 2));
  const __m256 w10 = _mm256_set1_ps(rot(1, 0)), w11 = _mm256_set1_ps(rot(1, 1)),
               w12 = _mm256_set1_ps(rot(1, 2));
  const __m256 w20 = _mm256_set1_ps(rot(2, 0)), w21 = _mm256_set1_ps(rot(2, 1)),
               w22 = _mm256_set1_ps(rot(2, 2));
  const __m256 cpx = _mm256_set1_ps(cp.x), cpy = _mm256_set1_ps(cp.y),
               cpz = _mm256_set1_ps(cp.z);
  const __m256 vfx = _mm256_set1_ps(cam.fx()), vfy = _mm256_set1_ps(cam.fy());
  const __m256 vcx = _mm256_set1_ps(cam.cx()), vcy = _mm256_set1_ps(cam.cy());
  const __m256 near_clip = _mm256_set1_ps(kNearClip);
  const __m256 dilation = _mm256_set1_ps(kScreenSpaceDilation);
  const __m256 one = _mm256_set1_ps(1.0f), half = _mm256_set1_ps(0.5f);
  const __m256 three = _mm256_set1_ps(3.0f), zero = _mm256_setzero_ps();
  const __m256 rx0 = _mm256_set1_ps(rect.x0), ry0 = _mm256_set1_ps(rect.y0);
  const __m256 rx1 = _mm256_set1_ps(rect.x1), ry1 = _mm256_set1_ps(rect.y1);

  for (std::size_t i = 0; i < count; i += 8) {
    const int lanes = count - i >= 8 ? 8 : static_cast<int>(count - i);
    const __m256i imask = tail_mask8(lanes);
    const __m256 vmask = _mm256_castsi256_ps(imask);
    const __m256 x = _mm256_maskload_ps(px + i, imask);
    const __m256 y = _mm256_maskload_ps(py + i, imask);
    const __m256 z = _mm256_maskload_ps(pz + i, imask);
    // p_cam = W * (p - cam_pos)
    const __m256 dx = _mm256_sub_ps(x, cpx);
    const __m256 dy = _mm256_sub_ps(y, cpy);
    const __m256 dz = _mm256_sub_ps(z, cpz);
    const __m256 xc = _mm256_fmadd_ps(w02, dz,
                                      _mm256_fmadd_ps(w01, dy,
                                                      _mm256_mul_ps(w00, dx)));
    const __m256 yc = _mm256_fmadd_ps(w12, dz,
                                      _mm256_fmadd_ps(w11, dy,
                                                      _mm256_mul_ps(w10, dx)));
    const __m256 zc = _mm256_fmadd_ps(w22, dz,
                                      _mm256_fmadd_ps(w21, dy,
                                                      _mm256_mul_ps(w20, dx)));
    __m256 keep =
        _mm256_and_ps(vmask, _mm256_cmp_ps(zc, near_clip, _CMP_GT_OQ));
    // sigma_max(J)^2 bound (project_coarse).
    const __m256 inv_z = _mm256_div_ps(one, zc);
    const __m256 xz = _mm256_mul_ps(xc, inv_z);
    const __m256 yz = _mm256_mul_ps(yc, inv_z);
    const __m256 fxz = _mm256_mul_ps(vfx, inv_z);
    const __m256 fyz = _mm256_mul_ps(vfy, inv_z);
    const __m256 a = _mm256_mul_ps(_mm256_mul_ps(fxz, fxz),
                                   _mm256_fmadd_ps(xz, xz, one));
    const __m256 c = _mm256_mul_ps(_mm256_mul_ps(fyz, fyz),
                                   _mm256_fmadd_ps(yz, yz, one));
    const __m256 b = _mm256_mul_ps(_mm256_mul_ps(fxz, fyz),
                                   _mm256_mul_ps(xz, yz));
    const __m256 mid = _mm256_mul_ps(half, _mm256_add_ps(a, c));
    const __m256 disc = _mm256_mul_ps(half, _mm256_sub_ps(a, c));
    const __m256 jj = _mm256_add_ps(
        mid, _mm256_sqrt_ps(_mm256_fmadd_ps(disc, disc, _mm256_mul_ps(b, b))));
    const __m256 s = _mm256_maskload_ps(ms + i, imask);
    const __m256 bound = _mm256_fmadd_ps(_mm256_mul_ps(s, s), jj, dilation);
    const __m256 radius = _mm256_mul_ps(three, _mm256_sqrt_ps(bound));
    // Projected mean + disc-vs-rect.
    const __m256 mx = _mm256_fmadd_ps(vfx, xz, vcx);
    const __m256 my = _mm256_fmadd_ps(vfy, yz, vcy);
    const __m256 ddx = _mm256_max_ps(
        zero, _mm256_max_ps(_mm256_sub_ps(rx0, mx), _mm256_sub_ps(mx, rx1)));
    const __m256 ddy = _mm256_max_ps(
        zero, _mm256_max_ps(_mm256_sub_ps(ry0, my), _mm256_sub_ps(my, ry1)));
    const __m256 d2 = _mm256_fmadd_ps(ddx, ddx, _mm256_mul_ps(ddy, ddy));
    keep = _mm256_and_ps(
        keep, _mm256_cmp_ps(d2, _mm256_mul_ps(radius, radius), _CMP_LE_OQ));
    unsigned m = static_cast<unsigned>(_mm256_movemask_ps(keep));
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(m));
      out_idx.push_back(static_cast<std::uint32_t>(i + j));
      m &= m - 1;
    }
  }
}

void coarse_filter_batch_avx2(const GaussianColumns& cols, std::size_t first,
                              std::size_t count, const Camera& cam,
                              const FilterRect& rect,
                              std::vector<std::uint32_t>& out_idx) {
  coarse_filter_avx2_impl(cols, first, count, cam, rect, out_idx);
}

// ---------------------------------------------------------- fine projection

SGS_AVX2 void fine_project_avx2_impl(const GaussianColumns& cols,
                                     std::size_t first,
                                     std::span<const std::uint32_t> candidates,
                                     const Camera& cam, const FilterRect& rect,
                                     std::vector<FineSurvivor>& out) {
  const Mat3f& rot = cam.rotation();
  const Vec3f cp = cam.position();
  const __m256 w00 = _mm256_set1_ps(rot(0, 0)), w01 = _mm256_set1_ps(rot(0, 1)),
               w02 = _mm256_set1_ps(rot(0, 2));
  const __m256 w10 = _mm256_set1_ps(rot(1, 0)), w11 = _mm256_set1_ps(rot(1, 1)),
               w12 = _mm256_set1_ps(rot(1, 2));
  const __m256 w20 = _mm256_set1_ps(rot(2, 0)), w21 = _mm256_set1_ps(rot(2, 1)),
               w22 = _mm256_set1_ps(rot(2, 2));
  const __m256 cpx = _mm256_set1_ps(cp.x), cpy = _mm256_set1_ps(cp.y),
               cpz = _mm256_set1_ps(cp.z);
  const __m256 vfx = _mm256_set1_ps(cam.fx()), vfy = _mm256_set1_ps(cam.fy());
  const __m256 vcx = _mm256_set1_ps(cam.cx()), vcy = _mm256_set1_ps(cam.cy());
  const __m256 near_clip = _mm256_set1_ps(kNearClip);
  const __m256 min_op = _mm256_set1_ps(kMinOpacity);
  const __m256 dilation = _mm256_set1_ps(kScreenSpaceDilation);
  const __m256 one = _mm256_set1_ps(1.0f), two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f), three = _mm256_set1_ps(3.0f);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 rx0 = _mm256_set1_ps(rect.x0), ry0 = _mm256_set1_ps(rect.y0);
  const __m256 rx1 = _mm256_set1_ps(rect.x1), ry1 = _mm256_set1_ps(rect.y1);

  const std::size_t n = candidates.size();
  for (std::size_t i = 0; i < n; i += 8) {
    const int lanes = n - i >= 8 ? 8 : static_cast<int>(n - i);
    // Gather the candidate records into transposed stack tiles. Pad lanes
    // carry a benign record (zero scale/opacity, identity quat) and are
    // masked out of `keep` regardless.
    alignas(32) float tpx[8], tpy[8], tpz[8];
    alignas(32) float tsx[8], tsy[8], tsz[8];
    alignas(32) float tqw[8], tqx[8], tqy[8], tqz[8];
    alignas(32) float top[8];
    for (int j = 0; j < 8; ++j) {
      if (j < lanes) {
        const std::size_t k = first + candidates[i + static_cast<std::size_t>(j)];
        tpx[j] = cols.px[k];
        tpy[j] = cols.py[k];
        tpz[j] = cols.pz[k];
        tsx[j] = cols.sx[k];
        tsy[j] = cols.sy[k];
        tsz[j] = cols.sz[k];
        tqw[j] = cols.rw[k];
        tqx[j] = cols.rx[k];
        tqy[j] = cols.ry[k];
        tqz[j] = cols.rz[k];
        top[j] = cols.opacity[k];
      } else {
        tpx[j] = tpy[j] = tpz[j] = 0.0f;
        tsx[j] = tsy[j] = tsz[j] = 0.0f;
        tqw[j] = 1.0f;
        tqx[j] = tqy[j] = tqz[j] = 0.0f;
        top[j] = 0.0f;
      }
    }
    const __m256 vmask = _mm256_castsi256_ps(tail_mask8(lanes));
    // p_cam + near/opacity culls.
    const __m256 dx = _mm256_sub_ps(_mm256_load_ps(tpx), cpx);
    const __m256 dy = _mm256_sub_ps(_mm256_load_ps(tpy), cpy);
    const __m256 dz = _mm256_sub_ps(_mm256_load_ps(tpz), cpz);
    const __m256 xc = _mm256_fmadd_ps(
        w02, dz, _mm256_fmadd_ps(w01, dy, _mm256_mul_ps(w00, dx)));
    const __m256 yc = _mm256_fmadd_ps(
        w12, dz, _mm256_fmadd_ps(w11, dy, _mm256_mul_ps(w10, dx)));
    const __m256 zc = _mm256_fmadd_ps(
        w22, dz, _mm256_fmadd_ps(w21, dy, _mm256_mul_ps(w20, dx)));
    const __m256 vop = _mm256_load_ps(top);
    __m256 keep =
        _mm256_and_ps(vmask, _mm256_cmp_ps(zc, near_clip, _CMP_GT_OQ));
    keep = _mm256_and_ps(keep, _mm256_cmp_ps(vop, min_op, _CMP_GE_OQ));
    // Rotation matrix of the (un-normalized) quaternion: s = 2 / |q|^2.
    const __m256 qw = _mm256_load_ps(tqw), qx = _mm256_load_ps(tqx);
    const __m256 qy = _mm256_load_ps(tqy), qz = _mm256_load_ps(tqz);
    const __m256 n2 = _mm256_fmadd_ps(
        qz, qz,
        _mm256_fmadd_ps(qy, qy,
                        _mm256_fmadd_ps(qx, qx, _mm256_mul_ps(qw, qw))));
    const __m256 s_ok = _mm256_cmp_ps(n2, zero, _CMP_GT_OQ);
    const __m256 qs =
        _mm256_and_ps(s_ok, _mm256_div_ps(two, n2));  // 0 when |q| == 0
    const __m256 xx = _mm256_mul_ps(_mm256_mul_ps(qx, qx), qs);
    const __m256 yy = _mm256_mul_ps(_mm256_mul_ps(qy, qy), qs);
    const __m256 zz = _mm256_mul_ps(_mm256_mul_ps(qz, qz), qs);
    const __m256 xy = _mm256_mul_ps(_mm256_mul_ps(qx, qy), qs);
    const __m256 xz_ = _mm256_mul_ps(_mm256_mul_ps(qx, qz), qs);
    const __m256 yz_ = _mm256_mul_ps(_mm256_mul_ps(qy, qz), qs);
    const __m256 wx = _mm256_mul_ps(_mm256_mul_ps(qw, qx), qs);
    const __m256 wy = _mm256_mul_ps(_mm256_mul_ps(qw, qy), qs);
    const __m256 wz = _mm256_mul_ps(_mm256_mul_ps(qw, qz), qs);
    const __m256 r00 = _mm256_sub_ps(one, _mm256_add_ps(yy, zz));
    const __m256 r01 = _mm256_sub_ps(xy, wz);
    const __m256 r02 = _mm256_add_ps(xz_, wy);
    const __m256 r10 = _mm256_add_ps(xy, wz);
    const __m256 r11 = _mm256_sub_ps(one, _mm256_add_ps(xx, zz));
    const __m256 r12 = _mm256_sub_ps(yz_, wx);
    const __m256 r20 = _mm256_sub_ps(xz_, wy);
    const __m256 r21 = _mm256_add_ps(yz_, wx);
    const __m256 r22 = _mm256_sub_ps(one, _mm256_add_ps(xx, yy));
    // M = R * diag(scale); Sigma = M M^T (6 unique entries).
    const __m256 sx = _mm256_load_ps(tsx), sy = _mm256_load_ps(tsy),
                 sz = _mm256_load_ps(tsz);
    const __m256 m00 = _mm256_mul_ps(r00, sx), m01 = _mm256_mul_ps(r01, sy),
                 m02 = _mm256_mul_ps(r02, sz);
    const __m256 m10 = _mm256_mul_ps(r10, sx), m11 = _mm256_mul_ps(r11, sy),
                 m12 = _mm256_mul_ps(r12, sz);
    const __m256 m20 = _mm256_mul_ps(r20, sx), m21 = _mm256_mul_ps(r21, sy),
                 m22 = _mm256_mul_ps(r22, sz);
    const __m256 c00 = _mm256_fmadd_ps(
        m02, m02, _mm256_fmadd_ps(m01, m01, _mm256_mul_ps(m00, m00)));
    const __m256 c01 = _mm256_fmadd_ps(
        m02, m12, _mm256_fmadd_ps(m01, m11, _mm256_mul_ps(m00, m10)));
    const __m256 c02 = _mm256_fmadd_ps(
        m02, m22, _mm256_fmadd_ps(m01, m21, _mm256_mul_ps(m00, m20)));
    const __m256 c11 = _mm256_fmadd_ps(
        m12, m12, _mm256_fmadd_ps(m11, m11, _mm256_mul_ps(m10, m10)));
    const __m256 c12 = _mm256_fmadd_ps(
        m12, m22, _mm256_fmadd_ps(m11, m21, _mm256_mul_ps(m10, m20)));
    const __m256 c22 = _mm256_fmadd_ps(
        m22, m22, _mm256_fmadd_ps(m21, m21, _mm256_mul_ps(m20, m20)));
    // V = W Sigma W^T (camera-space covariance, 6 unique entries).
    const __m256 t00 = _mm256_fmadd_ps(
        w02, c02, _mm256_fmadd_ps(w01, c01, _mm256_mul_ps(w00, c00)));
    const __m256 t01 = _mm256_fmadd_ps(
        w02, c12, _mm256_fmadd_ps(w01, c11, _mm256_mul_ps(w00, c01)));
    const __m256 t02 = _mm256_fmadd_ps(
        w02, c22, _mm256_fmadd_ps(w01, c12, _mm256_mul_ps(w00, c02)));
    const __m256 t10 = _mm256_fmadd_ps(
        w12, c02, _mm256_fmadd_ps(w11, c01, _mm256_mul_ps(w10, c00)));
    const __m256 t11 = _mm256_fmadd_ps(
        w12, c12, _mm256_fmadd_ps(w11, c11, _mm256_mul_ps(w10, c01)));
    const __m256 t12 = _mm256_fmadd_ps(
        w12, c22, _mm256_fmadd_ps(w11, c12, _mm256_mul_ps(w10, c02)));
    const __m256 t20 = _mm256_fmadd_ps(
        w22, c02, _mm256_fmadd_ps(w21, c01, _mm256_mul_ps(w20, c00)));
    const __m256 t21 = _mm256_fmadd_ps(
        w22, c12, _mm256_fmadd_ps(w21, c11, _mm256_mul_ps(w20, c01)));
    const __m256 t22 = _mm256_fmadd_ps(
        w22, c22, _mm256_fmadd_ps(w21, c12, _mm256_mul_ps(w20, c02)));
    const __m256 v00 = _mm256_fmadd_ps(
        w02, t02, _mm256_fmadd_ps(w01, t01, _mm256_mul_ps(w00, t00)));
    const __m256 v01 = _mm256_fmadd_ps(
        w12, t02, _mm256_fmadd_ps(w11, t01, _mm256_mul_ps(w10, t00)));
    const __m256 v02 = _mm256_fmadd_ps(
        w22, t02, _mm256_fmadd_ps(w21, t01, _mm256_mul_ps(w20, t00)));
    const __m256 v11 = _mm256_fmadd_ps(
        w12, t12, _mm256_fmadd_ps(w11, t11, _mm256_mul_ps(w10, t10)));
    const __m256 v12 = _mm256_fmadd_ps(
        w22, t12, _mm256_fmadd_ps(w21, t11, _mm256_mul_ps(w20, t10)));
    const __m256 v22 = _mm256_fmadd_ps(
        w22, t22, _mm256_fmadd_ps(w21, t21, _mm256_mul_ps(w20, t20)));
    // EWA Jacobian rows j0 = (fx/z, 0, -fx x / z^2), j1 = (0, fy/z, ...).
    const __m256 inv_z = _mm256_div_ps(one, zc);
    const __m256 xz = _mm256_mul_ps(xc, inv_z);
    const __m256 yz = _mm256_mul_ps(yc, inv_z);
    const __m256 j00 = _mm256_mul_ps(vfx, inv_z);
    const __m256 j11 = _mm256_mul_ps(vfy, inv_z);
    const __m256 j02 = _mm256_sub_ps(zero, _mm256_mul_ps(j00, xz));
    const __m256 j12 = _mm256_sub_ps(zero, _mm256_mul_ps(j11, yz));
    // Screen covariance: a = j0 V j0^T + 0.3, etc.
    const __m256 a = _mm256_add_ps(
        _mm256_fmadd_ps(
            _mm256_mul_ps(j02, j02), v22,
            _mm256_fmadd_ps(_mm256_mul_ps(two, _mm256_mul_ps(j00, j02)), v02,
                            _mm256_mul_ps(_mm256_mul_ps(j00, j00), v00))),
        dilation);
    const __m256 b = _mm256_fmadd_ps(
        _mm256_mul_ps(j02, j12), v22,
        _mm256_fmadd_ps(_mm256_mul_ps(j02, j11), v12,
                        _mm256_fmadd_ps(_mm256_mul_ps(j00, j12), v02,
                                        _mm256_mul_ps(_mm256_mul_ps(j00, j11),
                                                      v01))));
    const __m256 c2 = _mm256_add_ps(
        _mm256_fmadd_ps(
            _mm256_mul_ps(j12, j12), v22,
            _mm256_fmadd_ps(_mm256_mul_ps(two, _mm256_mul_ps(j11, j12)), v12,
                            _mm256_mul_ps(_mm256_mul_ps(j11, j11), v11))),
        dilation);
    const __m256 det = _mm256_fnmadd_ps(b, b, _mm256_mul_ps(a, c2));
    keep = _mm256_and_ps(keep, _mm256_cmp_ps(det, zero, _CMP_GT_OQ));
    // Conic, radius, mean, rect test.
    const __m256 conic_a = _mm256_div_ps(c2, det);
    const __m256 conic_b = _mm256_div_ps(_mm256_sub_ps(zero, b), det);
    const __m256 conic_c = _mm256_div_ps(a, det);
    const __m256 mid = _mm256_mul_ps(half, _mm256_add_ps(a, c2));
    const __m256 eig_disc = _mm256_sqrt_ps(
        _mm256_max_ps(zero, _mm256_fmsub_ps(mid, mid, det)));
    const __m256 radius = _mm256_mul_ps(
        three,
        _mm256_sqrt_ps(_mm256_max_ps(zero, _mm256_add_ps(mid, eig_disc))));
    const __m256 mx = _mm256_fmadd_ps(vfx, xz, vcx);
    const __m256 my = _mm256_fmadd_ps(vfy, yz, vcy);
    const __m256 ddx = _mm256_max_ps(
        zero, _mm256_max_ps(_mm256_sub_ps(rx0, mx), _mm256_sub_ps(mx, rx1)));
    const __m256 ddy = _mm256_max_ps(
        zero, _mm256_max_ps(_mm256_sub_ps(ry0, my), _mm256_sub_ps(my, ry1)));
    const __m256 d2 = _mm256_fmadd_ps(ddx, ddx, _mm256_mul_ps(ddy, ddy));
    keep = _mm256_and_ps(
        keep, _mm256_cmp_ps(d2, _mm256_mul_ps(radius, radius), _CMP_LE_OQ));

    unsigned m = static_cast<unsigned>(_mm256_movemask_ps(keep));
    if (m == 0) continue;
    alignas(32) float omx[8], omy[8], odepth[8], oca[8], ocb[8], occ[8],
        orad[8];
    _mm256_store_ps(omx, mx);
    _mm256_store_ps(omy, my);
    _mm256_store_ps(odepth, zc);
    _mm256_store_ps(oca, conic_a);
    _mm256_store_ps(ocb, conic_b);
    _mm256_store_ps(occ, conic_c);
    _mm256_store_ps(orad, radius);
    while (m != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctz(m));
      m &= m - 1;
      const std::uint32_t local = candidates[i + j];
      const std::size_t k = first + local;
      FineSurvivor fs;
      fs.local = local;
      fs.proj.mean = {omx[j], omy[j]};
      fs.proj.depth = odepth[j];
      fs.proj.conic = {oca[j], ocb[j], occ[j]};
      fs.proj.radius = orad[j];
      fs.proj.opacity = cols.opacity[k];
      fs.proj.color = eval_sh_record_avx2(
          cols, k, Vec3f{cols.px[k], cols.py[k], cols.pz[k]} - cp);
      out.push_back(fs);
    }
  }
}

void fine_project_batch_avx2(const GaussianColumns& cols, std::size_t first,
                             std::span<const std::uint32_t> candidates,
                             const Camera& cam, const FilterRect& rect,
                             std::vector<FineSurvivor>& out) {
  fine_project_avx2_impl(cols, first, candidates, cam, rect, out);
}

// -------------------------------------------------------------- alpha blend

SGS_AVX2 BlendCounters blend_avx2_impl(BlendPlanes& planes,
                                       std::vector<float>& max_depth,
                                       const ProjectedGaussian& g,
                                       const PixelSpan& span, int px0, int py0,
                                       int row_w) {
  BlendCounters out;
  const __m256 conic_a = _mm256_set1_ps(g.conic.a);
  const __m256 two_b = _mm256_set1_ps(2.0f * g.conic.b);
  const __m256 vop = _mm256_set1_ps(g.opacity);
  const __m256 vdepth = _mm256_set1_ps(g.depth);
  const __m256 col_r = _mm256_set1_ps(g.color.x);
  const __m256 col_g = _mm256_set1_ps(g.color.y);
  const __m256 col_b = _mm256_set1_ps(g.color.z);
  const __m256 cutoff = _mm256_set1_ps(kTransmittanceCutoff);
  const __m256 min_alpha = _mm256_set1_ps(kMinBlendAlpha);
  const __m256 alpha_clamp = _mm256_set1_ps(kAlphaClamp);
  const __m256 depth_eps = _mm256_set1_ps(1e-6f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 lane_ramp =
      _mm256_setr_ps(0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f);

  const int n = span.x1 - span.x0;
  for (int py = span.y0; py < span.y1; ++py) {
    const float fdy = static_cast<float>(py) + 0.5f - g.mean.y;
    const __m256 dy2c = _mm256_set1_ps(g.conic.c * fdy * fdy);
    const __m256 bdy = _mm256_mul_ps(two_b, _mm256_set1_ps(fdy));
    const std::size_t base =
        static_cast<std::size_t>((py - py0) * row_w + (span.x0 - px0));
    float* trow = planes.t.data() + base;
    float* rrow = planes.r.data() + base;
    float* grow = planes.g.data() + base;
    float* brow = planes.b.data() + base;
    float* mdrow = max_depth.data() + base;
    const float dx0 = static_cast<float>(span.x0) + 0.5f - g.mean.x;
    for (int i = 0; i < n; i += 8) {
      const int lanes = n - i >= 8 ? 8 : n - i;
      const __m256i imask = tail_mask8(lanes);
      const __m256 vmask = _mm256_castsi256_ps(imask);
      const __m256 t = _mm256_maskload_ps(trow + i, imask);
      const __m256 examined =
          _mm256_and_ps(vmask, _mm256_cmp_ps(t, cutoff, _CMP_GE_OQ));
      const int em = _mm256_movemask_ps(examined);
      out.blend_ops += static_cast<std::uint64_t>(
          __builtin_popcount(static_cast<unsigned>(em)));
      if (em == 0) continue;
      const __m256 dx =
          _mm256_add_ps(_mm256_set1_ps(dx0 + static_cast<float>(i)), lane_ramp);
      // power = 0.5 * (a dx^2 + 2b dx dy + c dy^2)
      const __m256 q = _mm256_fmadd_ps(
          _mm256_mul_ps(conic_a, dx), dx, _mm256_fmadd_ps(bdy, dx, dy2c));
      const __m256 power = _mm256_mul_ps(half, q);
      const __m256 pos_ok = _mm256_cmp_ps(power, zero, _CMP_GE_OQ);
      __m256 alpha =
          _mm256_mul_ps(vop, exp256_ps(_mm256_sub_ps(zero, power)));
      const __m256 alpha_ok = _mm256_cmp_ps(alpha, min_alpha, _CMP_GE_OQ);
      alpha = _mm256_min_ps(alpha, alpha_clamp);
      const __m256 active =
          _mm256_and_ps(examined, _mm256_and_ps(pos_ok, alpha_ok));
      const int am = _mm256_movemask_ps(active);
      if (am == 0) continue;
      out.contributions += static_cast<std::uint64_t>(
          __builtin_popcount(static_cast<unsigned>(am)));
      out.contributed = true;
      // Depth-order bookkeeping (the measured T_i of Eq. 2).
      __m256 md = _mm256_maskload_ps(mdrow + i, imask);
      const __m256 viol = _mm256_and_ps(
          active,
          _mm256_cmp_ps(vdepth, _mm256_sub_ps(md, depth_eps), _CMP_LT_OQ));
      const int vm = _mm256_movemask_ps(viol);
      if (vm != 0) {
        out.violations += static_cast<std::uint64_t>(
            __builtin_popcount(static_cast<unsigned>(vm)));
        out.violated = true;
      }
      const __m256 take_depth = _mm256_andnot_ps(viol, active);
      md = _mm256_blendv_ps(md, vdepth, take_depth);
      _mm256_maskstore_ps(mdrow + i, imask, md);
      // C += T * alpha * color on active lanes; T *= (1 - alpha).
      const __m256 w = _mm256_and_ps(_mm256_mul_ps(t, alpha), active);
      __m256 r = _mm256_maskload_ps(rrow + i, imask);
      __m256 gg = _mm256_maskload_ps(grow + i, imask);
      __m256 bb = _mm256_maskload_ps(brow + i, imask);
      r = _mm256_fmadd_ps(w, col_r, r);
      gg = _mm256_fmadd_ps(w, col_g, gg);
      bb = _mm256_fmadd_ps(w, col_b, bb);
      _mm256_maskstore_ps(rrow + i, imask, r);
      _mm256_maskstore_ps(grow + i, imask, gg);
      _mm256_maskstore_ps(brow + i, imask, bb);
      const __m256 t_next = _mm256_blendv_ps(
          t, _mm256_mul_ps(t, _mm256_sub_ps(one, alpha)), active);
      out.newly_saturated += static_cast<std::uint32_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_and_ps(
              active, _mm256_cmp_ps(t_next, cutoff, _CMP_LT_OQ))))));
      _mm256_maskstore_ps(trow + i, imask, t_next);
    }
  }
  return out;
}

BlendCounters blend_survivor_avx2(BlendPlanes& planes,
                                  std::vector<float>& max_depth,
                                  const ProjectedGaussian& proj,
                                  const PixelSpan& span, int px0, int py0,
                                  int row_w) {
  return blend_avx2_impl(planes, max_depth, proj, span, px0, py0, row_w);
}

// ------------------------------------------------------- VQ codebook gather

SGS_AVX2 void gather_avx2_impl(float* dst, std::size_t dst_stride,
                               const float* src, const std::uint32_t* idx,
                               std::size_t n, std::size_t src_stride,
                               std::size_t src_offset) {
  const __m256i vstride =
      _mm256_set1_epi32(static_cast<std::int32_t>(src_stride));
  const __m256i voffset =
      _mm256_set1_epi32(static_cast<std::int32_t>(src_offset));
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
    vi = _mm256_add_epi32(_mm256_mullo_epi32(vi, vstride), voffset);
    const __m256 v = _mm256_i32gather_ps(src, vi, 4);
    if (dst_stride == 1) {
      _mm256_storeu_ps(dst + k, v);
    } else {
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, v);
      for (int j = 0; j < 8; ++j) {
        dst[(k + static_cast<std::size_t>(j)) * dst_stride] = tmp[j];
      }
    }
  }
  for (; k < n; ++k) {
    dst[k * dst_stride] =
        src[static_cast<std::size_t>(idx[k]) * src_stride + src_offset];
  }
}

void gather_codebook_column_avx2(float* dst, std::size_t dst_stride,
                                 const float* src, const std::uint32_t* idx,
                                 std::size_t n, std::size_t src_stride,
                                 std::size_t src_offset) {
  gather_avx2_impl(dst, dst_stride, src, idx, n, src_stride, src_offset);
}

}  // namespace sgs::gs::detail

#endif  // SGS_KERNELS_X86
