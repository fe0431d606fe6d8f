// Work trace of a streaming-rendered frame.
//
// The functional renderer (streaming_renderer.cpp) records, per pixel group
// and per voxel visit, exactly how much work each pipeline stage performed.
// The accelerator simulator replays this trace through its stage-granular
// pipeline model; the same trace drives all STREAMINGGS variants.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgs::core {

// Number of level-of-detail payload tiers a voxel group may carry in a
// .sgsc v2 store: L0 = full fidelity, L1/L2 = importance-pruned subsets.
// Shared by the stream layer (tier directories, cache tagging), the trace
// (per-tier counters), and the simulator (per-tier fetch charging).
inline constexpr int kLodTierCount = 3;

// Monotonic timestamp shared by every producer of stage timings: one clock,
// one cast, so plan/vsu/filter/sort/blend breakdowns stay comparable.
inline std::uint64_t stage_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sentinel for "no demand-fetch deadline": a frame (or acquire) carrying it
// keeps the blocking pre-deadline behavior — a demand miss stalls the
// render worker until the fetch lands. Any other value is a deadline on the
// stage clock above (absolute at the cache seam, relative per-frame in
// SequenceOptions / FrameIntent / PrefetchConfig); an acquire whose fetch
// would run past it is served from the residency cache's always-resident
// coarse floor instead of blocking.
inline constexpr std::uint64_t kNoFetchDeadline = ~std::uint64_t{0};

// Wall-clock nanoseconds the software model spent in each pipeline stage.
// Filled only when stage timing is enabled (StreamingRenderOptions /
// SequenceOptions); all-zero otherwise. Timing is diagnostic metadata: it
// never participates in image or stats determinism. Every field has a
// kStageFields row (below).
struct StageTimingsNs {
  std::uint64_t plan = 0;    // frame-plan build (voxel table), frame-level
  std::uint64_t vsu = 0;     // ray marching + topological ordering
  std::uint64_t filter = 0;  // coarse + fine hierarchical filtering
  std::uint64_t sort = 0;    // per-voxel bitonic depth sort
  std::uint64_t blend = 0;   // alpha blending + pixel resolve
  // Trace v6: the formerly-unattributed stall time. `fetch` is the wall
  // time render workers spent inside source.acquire() minus the decode
  // share — lock waits, disk reads, waiting on another worker's in-flight
  // fetch; near-zero for resident scenes. `decode` is payload decode
  // (column peel + codebook gathers) performed synchronously on the
  // acquiring worker; async-lane prefetch decode does NOT land here — it
  // never blocks a frame.
  std::uint64_t fetch = 0;
  std::uint64_t decode = 0;

  std::uint64_t total() const;
  void accumulate(const StageTimingsNs& o);
};

// Monotone per-thread count of nanoseconds this thread spent decoding store
// payloads (written by stream::AssetStore's read path, differenced by the
// group pipeline around acquire() to split synchronous miss time into the
// `fetch` vs `decode` stage timings above).
inline std::uint64_t& thread_decode_ns() {
  thread_local std::uint64_t ns = 0;
  return ns;
}

using TierCounters = std::array<std::uint64_t, kLodTierCount>;

// Residency-cache activity attributed to one frame (out-of-core rendering,
// src/stream/). All-zero for fully-resident frames. `bytes_fetched` is
// on-disk .sgsc payload traffic — the stream the DRAM model charges for
// fetches — not the decoded in-memory footprint. Every field has a
// kStreamCacheFields row (below); stream::count_acquire / count_fetch are
// the one rule that turns an acquire or a fetch into these counters.
struct StreamCacheStats {
  std::uint64_t hits = 0;          // acquires served from resident groups
  std::uint64_t misses = 0;        // acquires that had to fetch (stalls)
  std::uint64_t prefetches = 0;    // groups fetched ahead of demand
  std::uint64_t evictions = 0;     // groups dropped by the byte budget
  std::uint64_t bytes_fetched = 0; // store payload bytes read (miss + prefetch)

  // Tier breakdown (trace v4, all-zero for single-tier stores at L0 except
  // the tier-0 slots). Hits are tagged with the tier actually SERVED
  // (resident tier); misses and upgrades with the tier REQUESTED (which the
  // fetch pays for); prefetches and fetched bytes with the tier FETCHED.
  // `upgrades` counts the subset of misses that refetched an
  // already-resident group at a higher-fidelity tier; hence
  // hits + misses == accesses() still holds, and upgrades <= misses.
  TierCounters tier_hits{};
  TierCounters tier_misses{};
  TierCounters tier_prefetches{};
  TierCounters tier_bytes_fetched{};
  std::uint64_t upgrades = 0;

  // Failure domain (trace v5, all-zero on error-free runs). A fetch that
  // errors never terminates a session: the acquire is served *degraded* —
  // the group's stale lower-fidelity tier when one is resident, an empty
  // view otherwise (the frame renders without that group) — and the group
  // enters a retry-with-backoff state so one corrupt group cannot trigger
  // a refetch storm.
  std::uint64_t fetch_errors = 0;    // fetch attempts that failed (typed
                                     // StreamError from the store)
  std::uint64_t degraded_groups = 0; // acquires served degraded (stale tier
                                     // or empty view) because of an error
                                     // state; a subset of misses
  std::uint64_t failed_groups = 0;   // groups whose retry budget ran out
                                     // (negative-cached until process end);
                                     // for a session scope: distinct failed
                                     // groups this session touched

  // Zero-stall streaming (trace v7). A demand acquire whose fetch would
  // run past the frame's deadline is served from the cache's pinned coarse
  // floor (or a stale resident tier) instead of blocking — counted as a
  // hit at the served tier, with the fallback recorded here exactly once
  // per (frame, group) by the stream::StreamingLoader that served it, so
  // per-session counters sum to the shared cache's global value. A subset
  // of hits; zero with a generous deadline, a disabled floor, or a
  // single-tier store.
  std::uint64_t coarse_fallbacks = 0;

  // Network-backed streaming (trace v8). `net_bytes` / `net_stall_ns` are
  // the bytes and transfer time of completed backend transfers paid by
  // demand misses and prefetches — the numerator and denominator of the
  // observable per-frame link throughput. Transfer time is virtual on a
  // SimulatedNetworkBackend and wall-clock on real I/O; fetch-scoped like
  // bytes_fetched (coarse-floor pinning and open-time metadata traffic are
  // excluded — the store backend's own stats() carries those).
  // `abr_demotions` counts plan groups demoted below their static-budget
  // tier by the LodPolicy ABR throughput term; it is accounted by the
  // stream::StreamingLoader at selection time, so the shared cache's own
  // counter stays 0 and a server report sums the sessions'.
  std::uint64_t net_bytes = 0;
  std::uint64_t net_stall_ns = 0;
  std::uint64_t abr_demotions = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(accesses());
  }
  void accumulate(const StreamCacheStats& o);
  // Per-frame delta between two cumulative snapshots of a source's counters
  // (all fields are monotone).
  StreamCacheStats delta_since(const StreamCacheStats& earlier) const;
};

// ---- Counter schema ---------------------------------------------------------
// Each counter above is declared once more, as a table row, in declaration
// order (also its SGST order, core/trace_io.hpp). Arithmetic, trace I/O,
// the per-frame metrics line (obs/publish.hpp) and the simulator's software
// stage map iterate the tables; none of them names a field.

// Where the work trace records a counter: once per frame, or once per
// pixel group (GroupWork::timing_ns).
enum class CounterScope : std::uint8_t { kFrame, kGroup };

template <typename S>
struct CounterField {
  const char* name;  // metric leaf name, sw_stage_ns key, catalog entry
  const char* unit;  // "count", "bytes" or "ns"
  std::uint64_t S::*scalar = nullptr;  // a scalar counter, or ...
  TierCounters S::*tiers = nullptr;    // ... one slot per LOD tier
  CounterScope scope = CounterScope::kFrame;
};

inline constexpr CounterField<StageTimingsNs> kStageFields[] = {
    // `plan` is frame-level: the trace carries it as plan_build_ns.
    {"plan", "ns", &StageTimingsNs::plan},
    {"vsu", "ns", &StageTimingsNs::vsu, nullptr, CounterScope::kGroup},
    {"filter", "ns", &StageTimingsNs::filter, nullptr, CounterScope::kGroup},
    {"sort", "ns", &StageTimingsNs::sort, nullptr, CounterScope::kGroup},
    {"blend", "ns", &StageTimingsNs::blend, nullptr, CounterScope::kGroup},
    {"fetch", "ns", &StageTimingsNs::fetch, nullptr, CounterScope::kGroup},
    {"decode", "ns", &StageTimingsNs::decode, nullptr, CounterScope::kGroup},
};

inline constexpr CounterField<StreamCacheStats> kStreamCacheFields[] = {
    {"hits", "count", &StreamCacheStats::hits},
    {"misses", "count", &StreamCacheStats::misses},
    {"prefetches", "count", &StreamCacheStats::prefetches},
    {"evictions", "count", &StreamCacheStats::evictions},
    {"bytes_fetched", "bytes", &StreamCacheStats::bytes_fetched},
    {"tier_hits", "count", nullptr, &StreamCacheStats::tier_hits},
    {"tier_misses", "count", nullptr, &StreamCacheStats::tier_misses},
    {"tier_prefetches", "count", nullptr, &StreamCacheStats::tier_prefetches},
    {"tier_bytes_fetched", "bytes", nullptr,
     &StreamCacheStats::tier_bytes_fetched},
    {"upgrades", "count", &StreamCacheStats::upgrades},
    {"fetch_errors", "count", &StreamCacheStats::fetch_errors},
    {"degraded_groups", "count", &StreamCacheStats::degraded_groups},
    {"failed_groups", "count", &StreamCacheStats::failed_groups},
    {"coarse_fallbacks", "count", &StreamCacheStats::coarse_fallbacks},
    {"net_bytes", "bytes", &StreamCacheStats::net_bytes},
    {"net_stall_ns", "ns", &StreamCacheStats::net_stall_ns},
    {"abr_demotions", "count", &StreamCacheStats::abr_demotions},
};

// Bytes the rows' slots cover: equal to sizeof the struct exactly when no
// field lacks a row (every field is a u64 or a TierCounters).
template <typename S, std::size_t N>
constexpr std::size_t counter_bytes(const CounterField<S> (&rows)[N]) {
  std::size_t bytes = 0;
  for (const auto& row : rows) {
    bytes += row.scalar != nullptr ? sizeof(std::uint64_t)
                                   : sizeof(TierCounters);
  }
  return bytes;
}
static_assert(counter_bytes(kStageFields) == sizeof(StageTimingsNs),
              "every StageTimingsNs field needs a kStageFields row");
static_assert(counter_bytes(kStreamCacheFields) == sizeof(StreamCacheStats),
              "every StreamCacheStats field needs a kStreamCacheFields row");

// Calls f(slot of s0, slot of s1, ...) for every u64 slot of the structs,
// in table order; a per-tier row yields kLodTierCount slots.
template <typename Row, std::size_t N, typename F, typename... S>
void for_each_counter(const Row (&rows)[N], F&& f, S&... s) {
  for (const Row& row : rows) {
    if (row.scalar != nullptr) {
      f(s.*row.scalar...);
    } else {
      for (int t = 0; t < kLodTierCount; ++t) f((s.*row.tiers)[t]...);
    }
  }
}

inline std::uint64_t StageTimingsNs::total() const {
  std::uint64_t t = 0;
  for_each_counter(kStageFields, [&t](std::uint64_t v) { t += v; }, *this);
  return t;
}

inline void StageTimingsNs::accumulate(const StageTimingsNs& o) {
  for_each_counter(kStageFields, [](auto& a, auto b) { a += b; }, *this, o);
}

inline void StreamCacheStats::accumulate(const StreamCacheStats& o) {
  for_each_counter(kStreamCacheFields, [](auto& a, auto b) { a += b; }, *this,
                   o);
}

inline StreamCacheStats StreamCacheStats::delta_since(
    const StreamCacheStats& earlier) const {
  StreamCacheStats d = *this;
  for_each_counter(kStreamCacheFields, [](auto& a, auto b) { a -= b; }, d,
                   earlier);
  return d;
}

// One voxel streamed for one pixel group.
struct VoxelWorkItem {
  std::uint32_t residents = 0;     // Gaussians streamed through the coarse phase
  std::uint32_t coarse_pass = 0;   // survivors entering the fine phase
  std::uint32_t fine_pass = 0;     // survivors entering sort + render
  std::uint64_t coarse_bytes = 0;  // DRAM bytes, coarse stream
  std::uint64_t fine_bytes = 0;    // DRAM bytes, fine stream
  std::uint64_t blend_ops = 0;     // pixel-blend evaluations in this voxel
};

// One pixel group (tile) of the frame.
struct GroupWork {
  std::uint32_t rays = 0;        // pixels in the group
  std::uint64_t dda_steps = 0;   // VSU ray-marching steps (incl. empty cells)
  std::uint32_t nodes = 0;       // voxels in the ordering DAG
  std::uint32_t edges = 0;       // dependency edges
  StageTimingsNs timing_ns;      // per-stage software time (opt-in)
  std::vector<VoxelWorkItem> voxels;  // in global rendering order
};

struct StreamingTrace {
  int group_size = 32;
  std::uint64_t pixel_count = 0;
  std::uint64_t frame_write_bytes = 0;
  // Per-frame VSU voxel-table build: every non-empty voxel is projected
  // once to bin it into the pixel groups it may affect. Zero for frames
  // that reused a cached FramePlan (sequence rendering).
  std::uint64_t voxel_table_steps = 0;
  // True when this frame reused the previous frame's FramePlan.
  bool plan_reused = false;
  // Frame-plan build time (opt-in, see StageTimingsNs).
  std::uint64_t plan_build_ns = 0;
  // Residency-cache deltas for this frame (all-zero when fully resident).
  StreamCacheStats cache;
  // How long this frame's session sat in the multiplexed scheduler's ready
  // queue before a driver picked it up (trace v9; 0 when driven directly,
  // without the scheduler).
  std::uint64_t queue_wait_ns = 0;
  std::vector<GroupWork> groups;

  // --- aggregates ----------------------------------------------------------
  std::uint64_t total_residents() const {
    std::uint64_t t = 0;
    for (const auto& g : groups)
      for (const auto& v : g.voxels) t += v.residents;
    return t;
  }
  std::uint64_t total_coarse_pass() const {
    std::uint64_t t = 0;
    for (const auto& g : groups)
      for (const auto& v : g.voxels) t += v.coarse_pass;
    return t;
  }
  std::uint64_t total_fine_pass() const {
    std::uint64_t t = 0;
    for (const auto& g : groups)
      for (const auto& v : g.voxels) t += v.fine_pass;
    return t;
  }
  std::uint64_t total_blend_ops() const {
    std::uint64_t t = 0;
    for (const auto& g : groups)
      for (const auto& v : g.voxels) t += v.blend_ops;
    return t;
  }
  std::uint64_t total_dram_bytes() const {
    std::uint64_t t = frame_write_bytes;
    for (const auto& g : groups)
      for (const auto& v : g.voxels) t += v.coarse_bytes + v.fine_bytes;
    return t;
  }
  // Per-stage software time summed over all groups plus the plan build.
  StageTimingsNs total_stage_ns() const {
    StageTimingsNs t;
    t.plan = plan_build_ns;
    for (const auto& g : groups) t.accumulate(g.timing_ns);
    return t;
  }
};

}  // namespace sgs::core
