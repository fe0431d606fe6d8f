// Work trace of a streaming-rendered frame.
//
// The functional renderer (streaming_renderer.cpp) records, per pixel group
// and per voxel visit, exactly how much work each pipeline stage performed.
// The accelerator simulator replays this trace through its stage-granular
// pipeline model; the same trace drives all STREAMINGGS variants.
#pragma once

#include <array>
#include <chrono>
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
// never participates in image or stats determinism.
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

  std::uint64_t total() const {
    return plan + vsu + filter + sort + blend + fetch + decode;
  }
  void accumulate(const StageTimingsNs& o) {
    plan += o.plan;
    vsu += o.vsu;
    filter += o.filter;
    sort += o.sort;
    blend += o.blend;
    fetch += o.fetch;
    decode += o.decode;
  }
};

// Monotone per-thread count of nanoseconds this thread spent decoding store
// payloads (written by stream::AssetStore's read path, differenced by the
// group pipeline around acquire() to split synchronous miss time into the
// `fetch` vs `decode` stage timings above).
inline std::uint64_t& thread_decode_ns() {
  thread_local std::uint64_t ns = 0;
  return ns;
}

// Residency-cache activity attributed to one frame (out-of-core rendering,
// src/stream/). All-zero for fully-resident frames. `bytes_fetched` is
// on-disk .sgsc payload traffic — the stream the DRAM model charges for
// fetches — not the decoded in-memory footprint.
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
  std::array<std::uint64_t, kLodTierCount> tier_hits{};
  std::array<std::uint64_t, kLodTierCount> tier_misses{};
  std::array<std::uint64_t, kLodTierCount> tier_prefetches{};
  std::array<std::uint64_t, kLodTierCount> tier_bytes_fetched{};
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
  void accumulate(const StreamCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    prefetches += o.prefetches;
    evictions += o.evictions;
    bytes_fetched += o.bytes_fetched;
    for (int t = 0; t < kLodTierCount; ++t) {
      tier_hits[t] += o.tier_hits[t];
      tier_misses[t] += o.tier_misses[t];
      tier_prefetches[t] += o.tier_prefetches[t];
      tier_bytes_fetched[t] += o.tier_bytes_fetched[t];
    }
    upgrades += o.upgrades;
    fetch_errors += o.fetch_errors;
    degraded_groups += o.degraded_groups;
    failed_groups += o.failed_groups;
    coarse_fallbacks += o.coarse_fallbacks;
    net_bytes += o.net_bytes;
    net_stall_ns += o.net_stall_ns;
    abr_demotions += o.abr_demotions;
  }
  // Per-frame delta between two cumulative snapshots of a source's counters
  // (all fields are monotone).
  StreamCacheStats delta_since(const StreamCacheStats& earlier) const {
    StreamCacheStats d;
    d.hits = hits - earlier.hits;
    d.misses = misses - earlier.misses;
    d.prefetches = prefetches - earlier.prefetches;
    d.evictions = evictions - earlier.evictions;
    d.bytes_fetched = bytes_fetched - earlier.bytes_fetched;
    for (int t = 0; t < kLodTierCount; ++t) {
      d.tier_hits[t] = tier_hits[t] - earlier.tier_hits[t];
      d.tier_misses[t] = tier_misses[t] - earlier.tier_misses[t];
      d.tier_prefetches[t] = tier_prefetches[t] - earlier.tier_prefetches[t];
      d.tier_bytes_fetched[t] =
          tier_bytes_fetched[t] - earlier.tier_bytes_fetched[t];
    }
    d.upgrades = upgrades - earlier.upgrades;
    d.fetch_errors = fetch_errors - earlier.fetch_errors;
    d.degraded_groups = degraded_groups - earlier.degraded_groups;
    d.failed_groups = failed_groups - earlier.failed_groups;
    d.coarse_fallbacks = coarse_fallbacks - earlier.coarse_fallbacks;
    d.net_bytes = net_bytes - earlier.net_bytes;
    d.net_stall_ns = net_stall_ns - earlier.net_stall_ns;
    d.abr_demotions = abr_demotions - earlier.abr_demotions;
    return d;
  }
};

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
  // Serving-host context (trace v9); defaults describe the single-viewer
  // paths. `scenes` is how many scene shards the host held when this frame
  // rendered; `admission_rejects` its cumulative admission-reject count at
  // commit; `queue_wait_ns` how long this frame's session sat in the
  // multiplexed scheduler's ready queue before a driver picked it up (0
  // when driven directly, without the scheduler).
  std::uint32_t scenes = 1;
  std::uint64_t admission_rejects = 0;
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
