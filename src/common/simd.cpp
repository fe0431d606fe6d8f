#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace sgs::simd {

namespace {

// -1 == no force; otherwise the int value of the forced IsaLevel.
std::atomic<int> g_forced{-1};

IsaLevel probe() {
#if defined(SGS_NO_SIMD)
  return IsaLevel::kScalar;
#elif defined(__x86_64__) || defined(__i386__)
  if (std::getenv("SGS_FORCE_SCALAR") != nullptr) return IsaLevel::kScalar;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAvx2;
  }
  return IsaLevel::kScalar;
#else
  return IsaLevel::kScalar;
#endif
}

}  // namespace

IsaLevel detect_isa() {
  static const IsaLevel level = probe();
  return level;
}

IsaLevel active_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  const IsaLevel detected = detect_isa();
  if (forced < 0) return detected;
  // Forcing up is clamped: never dispatch instructions the host lacks.
  return forced < static_cast<int>(detected) ? static_cast<IsaLevel>(forced)
                                             : detected;
}

void force_isa(IsaLevel level) {
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_forced_isa() { g_forced.store(-1, std::memory_order_relaxed); }

const char* isa_name(IsaLevel level) {
  return level == IsaLevel::kAvx2 ? "avx2" : "scalar";
}

ScopedForceIsa::ScopedForceIsa(IsaLevel level)
    : previous_(g_forced.load(std::memory_order_relaxed)) {
  force_isa(level);
}

ScopedForceIsa::~ScopedForceIsa() {
  g_forced.store(previous_, std::memory_order_relaxed);
}

}  // namespace sgs::simd
