// Runtime CPU-feature dispatch for the per-Gaussian SIMD kernels
// (gs/kernels.hpp). The kernels ship two tiers:
//
//   kScalar — the reference path, run on every host. Calls the exact same
//     scalar routines the pre-SIMD pipeline used (projection.cpp, sh.cpp,
//     blending.cpp), so a scalar-dispatched render is bit-identical to the
//     historical output and to the frozen golden tests.
//   kAvx2   — 8-wide coarse filter, fine projection (with SH color), and
//     alpha blending, plus gathered VQ codebook decode. Requires AVX2+FMA.
//
// Dispatch is resolved per kernel call from active_isa(): the detected level
// by default, or a pinned level when one of the override channels is set —
// force_isa() (tests, the examples' --force_scalar flag) or the
// SGS_FORCE_SCALAR environment variable (CI's forced-scalar smoke). Forcing
// *up* is clamped to the detected level, so a pinned binary can degrade but
// never execute instructions the host lacks. Building with -DSGS_SIMD=OFF
// compiles the vector kernels out entirely and pins detection to kScalar.
//
// Determinism contract: within one process at one dispatch level, kernel
// results depend only on their inputs — never on pointer alignment or the
// offset of a group slice inside its column store (lane blocking counts from
// the slice start, tails are masked, loads are unaligned). That is what lets
// the four bit-exactness invariants (OOC == resident, forced-L0 == exact,
// per-session == alone, error-free == pristine) hold at *every* dispatch
// level: both sides of each comparison run the same kernels on the same
// bytes. Only comparisons against a *different* binary or dispatch level
// (the frozen scalar goldens) require pinning kScalar; scalar-vs-vector
// differences are bounded by the kernel tolerance contract instead
// (docs/ARCHITECTURE.md, "SIMD dispatch & layout").
#pragma once

namespace sgs::simd {

enum class IsaLevel : int { kScalar = 0, kAvx2 = 1 };

// Highest level this host supports (cached cpuid probe; kScalar when built
// with -DSGS_SIMD=OFF, on non-x86 targets, or under SGS_FORCE_SCALAR).
IsaLevel detect_isa();

// The level kernels dispatch on: min(forced, detected) when a force is set,
// detected otherwise.
IsaLevel active_isa();

// Pins dispatch for the whole process (atomic; last writer wins).
void force_isa(IsaLevel level);
void clear_forced_isa();

// Human-readable name ("scalar", "avx2") for logs and benches.
const char* isa_name(IsaLevel level);

// RAII pin used by tests: forces `level` for the scope, then restores the
// previous force state (including "none").
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(IsaLevel level);
  ~ScopedForceIsa();
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;

 private:
  int previous_;  // raw forced slot: -1 == none
};

}  // namespace sgs::simd
