// ResidencyCache: decoded voxel groups held under a byte budget, shareable
// by any number of concurrent viewer sessions.
//
// The cache is the store a StreamingLoader (the per-frame front-end, see
// streaming_loader.hpp) renders through: acquire_outcome() pins a group and
// returns its decoded view, fetching from the AssetStore on a miss (a
// demand stall — the render worker blocks on the disk read). The async
// lane warms the cache ahead of demand through prefetch_checked().
//
// Entries are tier-tagged (LOD): each group is resident at exactly one
// payload tier at a time. A request for tier t is satisfied by any
// resident tier <= t; a request better than the resident tier refetches
// just that group (an upgrade). The per-tier hit/miss/prefetch/byte
// counters and the upgrade count surface in stats() (trace v4).
//
// Eviction is strict LRU over unprotected groups: a group is protected
// while (a) any acquire is outstanding on it (`pins`), (b) at least one
// in-flight FramePlan claims it (`plan_pins`, a refcount — several sessions
// may pin the same group, and eviction respects the *union* of their
// working sets), or (c) a fetch is replacing its payload (`loading`). Plan
// pins are taken with pin_plan() and dropped with unpin_plan() — the only
// pinning path. Pinned groups may push residency above the budget; the
// overshoot drains at the next unpin.
//
// Only evictable groups (resident and unprotected) sit in the eviction
// order: an ordered set keyed by (last-touch stamp, group), where the
// stamp is a counter bumped when a group becomes resident and on every
// acquire. A group enters the set when its last protection drops and
// leaves it when any is taken, so an eviction pass pops the oldest entry
// per victim — O(log n) each — and never walks past the pinned working
// set. Pin, unpin, acquire and release each cost O(log n) on top.
//
// The budget counts decoded in-memory bytes (DecodedGroup::resident_bytes),
// while bytes_fetched counts on-disk payload bytes — the two sides of the
// memory/traffic trade the simulator prices.
//
// Thread-safety: one mutex guards all cache state; every public method is
// safe to call concurrently from any thread, so any number of viewers may
// share one cache, each pinning its own working set.
// Fetches (disk read + decode) run *outside* the lock with the entry
// marked `loading`, so concurrent acquires of other groups proceed, and
// concurrent acquires of the *same* group sleep on a condition variable
// instead of fetching twice (no double-decode, ever). pin/unpin/acquire/
// release never block on disk unless they themselves miss.
//
// Attribution: the cumulative counters in stats() are global across all
// callers. Loaders use acquire_outcome() / the prefetch byte out-params to
// additionally attribute each hit, miss, and fetched byte to the viewer
// that caused it.
//
// Determinism: for a fixed request trace from one thread, hits, misses,
// evictions, and the resident set are fully reproducible (pure LRU, no
// clocks). Concurrent traces keep counters exact but their interleaving is
// scheduling-dependent; the *rendered image* never depends on cache state.
//
// Failure domain: a fetch that errors (typed StreamError from the store)
// never terminates the caller and never wedges the entry — loading is
// cleared and waiters woken on EVERY exit path (RAII). The acquire is
// served *degraded*: the group's stale resident tier when one is there
// (an upgrade that failed), an empty view otherwise (the frame renders
// without that group). Failure state is per (group, tier) — errors are
// tier-scoped on disk (one corrupt payload does not poison the group's
// other tiers), so a group whose L0 is corrupt still streams at L1/L2.
// A failing tier enters a deterministic retry-with-backoff state — each
// failure doubles a countdown of denied requests before the next disk
// attempt — and after max_fetch_attempts failures that tier is
// negative-cached for the cache's lifetime, so one corrupt payload costs
// a bounded number of disk touches total, never a refetch storm.
// Counters: fetch_errors / degraded_groups / failed_groups in stats()
// (trace v5; failed_groups counts groups with >= 1 failed tier, once).
//
// Residency hierarchy (the zero-stall floor): when the config carries a
// coarse_floor_budget_bytes and the store has a cheaper-than-L0 tier
// (AssetStore::has_coarse_tier), construction pins every group's CHEAPEST
// tier into a separate floor arena — charged against the floor budget, not
// budget_bytes; never in the LRU; never evictable — so acquire can always
// return *something* without touching the disk. Deadline-aware acquires
// (acquire_outcome with a deadline on core::stage_clock_ns) that would
// have to block past the deadline are served the group's best
// immediately-available payload instead: a stale resident tier when one is
// there, the floor otherwise. Such serves count as hits at the served tier
// with outcome.coarse_fallback set; the loader dedups the flag per
// (frame, group) into stats().coarse_fallbacks (trace v7) via
// record_coarse_fallback(). The floor also backstops error-state serves:
// a degraded acquire with a floor payload renders the coarse tier instead
// of an empty view. The floor is all-or-nothing against its budget
// (predicted from the directory before any read; too big = disabled, the
// pre-floor blocking behavior), but per-group read errors at open only
// leave holes. One-time open traffic is reported by coarse_floor_bytes(),
// not mixed into stats() — per-session prefetch attribution must keep
// summing to the global counters.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "stream/asset_store.hpp"
#include "stream/group_source.hpp"
#include "stream/stream_error.hpp"

namespace sgs::stream {

// Upper bound, in denied requests, on one retry back-off window (see
// ResidencyCacheConfig::retry_backoff_base).
inline constexpr std::uint32_t kRetryBackoffCap = 64;

struct ResidencyCacheConfig {
  // Decoded-bytes budget. Groups beyond it are evicted LRU-first; pinned
  // groups are never evicted even when over budget.
  std::uint64_t budget_bytes = 64ull << 20;
  // Failure domain. A (group, tier) fetch may fail this many times before
  // that tier is negative-cached for good (failed_groups counts the group
  // once); between failures, retries back off exponentially, measured in
  // *denied requests* (not wall time, so behavior stays deterministic per
  // request trace): after failure k the next retry_backoff_base << (k-1)
  // fetch-wanting requests (capped at kRetryBackoffCap) are served
  // degraded without touching the disk.
  int max_fetch_attempts = 3;
  std::uint32_t retry_backoff_base = 4;
  // Always-resident coarse floor, a SEPARATE budget from budget_bytes
  // (decoded bytes, like the main budget — a few % of the scene is the
  // intended scale). 0 disables the floor. When > 0 and the store has a
  // coarse tier, construction pins every group's cheapest tier for the
  // cache's lifetime; when the directory-predicted floor exceeds this
  // budget the floor is disabled outright (all-or-nothing, so a partially
  // pinned floor can never masquerade as zero-stall coverage).
  std::uint64_t coarse_floor_budget_bytes = 0;
};

// What one prefetch request actually did.
enum class PrefetchResult : std::uint8_t {
  kFetched = 0,     // fetched (or upgraded) the group at the asked tier
  kSkipped,         // nothing to do: resident/in-flight/pinned by readers
  kErrored,         // the fetch was attempted and failed (typed error)
  kNegativeCached,  // denied without disk IO: group failed or backing off
};

// What one acquire actually did — the per-session attribution record.
struct AcquireOutcome {
  GroupView view;
  // The group this outcome describes (failure attribution keys on it).
  voxel::DenseVoxelId group = 0;
  // True when this call paid the demand fetch itself (a stall for the
  // calling worker). An acquire that waited on someone else's in-flight
  // fetch counts as a hit: the group arrived without this caller paying.
  bool missed = false;
  // On-disk payload bytes this call fetched (non-zero only when `missed`).
  std::uint64_t bytes_fetched = 0;
  // Backend transfer time for those bytes (non-zero only when `missed`;
  // virtual on a simulated link) — what the caller's BandwidthEstimator
  // observes and its per-session net_stall_ns accumulates.
  std::uint64_t fetch_ns = 0;
  // LOD attribution: the tier the caller asked for, the tier the returned
  // view actually carries (served <= requested — a resident better tier
  // satisfies a worse request — EXCEPT degraded serves, which may return a
  // stale worse tier or, with served_tier == -1, an empty view), and
  // whether this call refetched an already-resident group at higher
  // fidelity.
  int requested_tier = 0;
  int served_tier = 0;
  bool upgraded = false;
  // Failure attribution. `degraded`: this acquire could not be served at
  // the requested-or-better tier because of an error state — the view is
  // the stale resident payload or empty. `fetch_errored`: this very call
  // attempted the fetch and it failed (`error` carries the typed reason —
  // by shared pointer, so degraded serves cost no allocation under the
  // cache mutex). `group_failed`: the requested tier has exhausted its
  // retry budget and is negative-cached.
  bool degraded = false;
  bool fetch_errored = false;
  bool group_failed = false;
  std::shared_ptr<const StreamError> error;
  // Deadline fallback: the fetch this acquire wanted would have run past
  // the caller's deadline, so the view was served from the group's best
  // immediately-available payload (a stale resident tier, else the pinned
  // coarse floor) without touching the disk. Counted as a hit at
  // served_tier; the caller's loader dedups this flag per (frame, group)
  // into StreamCacheStats::coarse_fallbacks.
  bool coarse_fallback = false;
};

// The one accounting rule: the cache (its global counters) and every
// SessionCacheStats (its own) call these two under their own mutex.
//
// A completed fetch at `tier` of `bytes` payload bytes whose transfer took
// `ns`, paid by a demand miss or by a prefetch.
inline void count_fetch(core::StreamCacheStats& s, std::uint64_t bytes,
                        int tier, std::uint64_t ns, bool is_prefetch) {
  const auto t = static_cast<std::size_t>(tier);
  s.bytes_fetched += bytes;
  s.tier_bytes_fetched[t] += bytes;
  s.net_bytes += bytes;
  s.net_stall_ns += ns;
  if (is_prefetch) {
    ++s.prefetches;
    ++s.tier_prefetches[t];
  }
}

// One acquire: a degraded serve or a paid fetch is a miss at the requested
// tier, anything else (deadline fallbacks included) a hit at the served
// tier. coarse_fallbacks, evictions and failed_groups are counted by their
// owners.
inline void count_acquire(core::StreamCacheStats& s, const AcquireOutcome& o) {
  if (!o.degraded && !o.missed) {
    ++s.hits;
    ++s.tier_hits[static_cast<std::size_t>(o.served_tier)];
    return;
  }
  ++s.misses;
  ++s.tier_misses[static_cast<std::size_t>(o.requested_tier)];
  if (o.degraded) {
    ++s.degraded_groups;
    if (o.fetch_errored) ++s.fetch_errors;
    return;
  }
  if (o.upgraded) ++s.upgrades;
  count_fetch(s, o.bytes_fetched, o.requested_tier, o.fetch_ns,
              /*is_prefetch=*/false);
}

class ResidencyCache final {
 public:
  ResidencyCache(const AssetStore& store, ResidencyCacheConfig config = {});

  // Adds one plan pin to every group in `voxels` (refcounted: k viewers
  // pinning a group protect it until all k unpin). Pinning does not fetch.
  void pin_plan(std::span<const voxel::DenseVoxelId> voxels);
  // Drops one plan pin from every group in `voxels` and drains any budget
  // overshoot that the pins were holding back. Every pin_plan must be
  // matched by exactly one unpin_plan with the same voxel set.
  void unpin_plan(std::span<const voxel::DenseVoxelId> voxels);

  // Pins `v` and returns its decoded view, fetching on a miss; the view
  // stays valid until the matching release(v). The outcome tells the
  // caller whether *it* paid a demand fetch and how many payload bytes
  // that fetch read. Safe from any render worker.
  //
  // Tier semantics (`tier` is the lowest fidelity the caller accepts, 0 =
  // full): a resident group whose tier is <= `tier` is a hit and is served
  // as-is — an L1 in the cache satisfies an L1-or-worse request. A group
  // resident at a *worse* tier is refetched at `tier` (an upgrade: counted
  // as a miss plus `upgrades`; the refetch reads only this group). The
  // upgrade waits for outstanding views of the stale payload to drain
  // before replacing it; callers never see buffers swap under a live view.
  //
  // Deadline semantics (`deadline_ns`, absolute on core::stage_clock_ns;
  // kNoFetchDeadline = the blocking behavior above, bit-for-bit): when a
  // fetch is wanted but the deadline has passed — or another caller's
  // in-flight fetch of this group is still loading at the deadline — and a
  // fallback payload exists (stale resident tier or pinned coarse floor),
  // the acquire serves that payload immediately instead of blocking
  // (outcome.coarse_fallback, a HIT at the served tier). With nothing to
  // fall back on (no floor, group absent) the blocking path runs even past
  // the deadline — a deadline bounds stalls, it never invents pixels.
  AcquireOutcome acquire_outcome(voxel::DenseVoxelId v, int tier = 0,
                                 std::uint64_t deadline_ns = kNoFetchDeadline);
  // Drops the pin acquire_outcome() took — on every path, degraded and
  // floor serves included.
  void release(voxel::DenseVoxelId v);
  // Cumulative global counters since construction (all callers).
  core::StreamCacheStats stats() const;

  // Loader-facing --------------------------------------------------------
  // Fetches `v` at `tier` if absent, or re-fetches it at `tier` when
  // resident at a worse tier and currently unviewed (counted as a
  // prefetch, not a miss). kFetched when this call fetched; kSkipped when
  // the group was already resident at `tier` or better, in flight, or
  // pinned by readers (an upgrade must not block the async lane — demand
  // acquire will pay it instead); kErrored / kNegativeCached on a failed
  // or denied fetch — prefetch NEVER throws, so a batch drain continues
  // past a bad group and counts it. When it fetched, the payload bytes
  // read and the backend transfer time land in the non-null out-params
  // (the drain attributes them and feeds the viewer's BandwidthEstimator).
  PrefetchResult prefetch_checked(voxel::DenseVoxelId v, int tier = 0,
                                  std::uint64_t* fetched_bytes = nullptr,
                                  std::uint64_t* fetched_ns = nullptr);

  // Failure-domain introspection -----------------------------------------
  // True when at least one of `v`'s tiers has exhausted its retry budget
  // (negative-cached); pass a specific `tier` to probe just that tier.
  bool group_failed(voxel::DenseVoxelId v) const;
  bool tier_failed(voxel::DenseVoxelId v, int tier) const;
  // The last fetch error recorded for `v`, if any.
  std::optional<StreamError> group_error(voxel::DenseVoxelId v) const;
  bool resident(voxel::DenseVoxelId v) const;
  // Resident tier of `v`, or -1 when absent.
  int resident_tier(voxel::DenseVoxelId v) const;
  // Per group, under ONE lock acquisition (indexed by dense voxel id): the
  // resident tier (0..2, kTierAbsent when not resident) and the bitmask of
  // negative-cached tiers (bit t set = tier t exhausted its retry budget);
  // either out-param may be null. Prefetch ranking scans the whole
  // directory per viewer per frame — probing per group would hammer the
  // mutex all render workers contend on — and masks its wanted tier
  // against the failures so a dead (group, tier) never re-enters a batch.
  // The snapshot is advisory: a group may be fetched or evicted the
  // instant the lock drops, which is all ranking needs.
  static constexpr std::uint8_t kTierAbsent = 0xFF;
  void ranking_snapshot(std::vector<std::uint8_t>* resident_tiers,
                        std::vector<std::uint8_t>* failed_tiers) const;

  std::uint64_t resident_bytes() const;
  // Current LRU budget (decoded bytes). Starts at config().budget_bytes
  // and moves with set_budget_bytes().
  std::uint64_t budget_bytes() const;
  // Re-targets the LRU budget at runtime and evicts down to the new value
  // immediately (LRU-first, pinned groups excepted — their overshoot
  // drains at the next unpin, exactly as for a within-budget fetch burst).
  // The floor arena is untouched: it lives under its own budget. This is
  // the shard-rebalancing hook of a multi-scene serve::SceneServer, whose
  // governor moves byte shares between per-scene caches while keeping
  // their sum equal to one global budget.
  void set_budget_bytes(std::uint64_t budget_bytes);
  const ResidencyCacheConfig& config() const { return config_; }
  const AssetStore& store() const { return *store_; }

  // Coarse-floor introspection --------------------------------------------
  // The floor state is immutable after construction, so these are safe to
  // call from any thread without observing the cache mutex.
  //
  // True when the floor was pinned at construction (budget set, store has
  // a coarse tier, and the predicted floor fit the floor budget).
  bool coarse_floor_enabled() const { return coarse_tier_ >= 0; }
  // Decoded bytes the pinned floor holds — charged against the floor
  // budget, never against budget_bytes (and excluded from
  // resident_bytes()). Zero when disabled.
  std::uint64_t coarse_floor_bytes() const { return floor_bytes_; }
  // Tier the floor pins (the store's cheapest), or -1 when disabled.
  int coarse_tier() const { return coarse_tier_; }
  // Whether group `v`'s floor payload is pinned (false for every group
  // when the floor is disabled; a hole when its open-time read failed).
  bool coarse_floor_resident(voxel::DenseVoxelId v) const {
    return coarse_tier_ >= 0 &&
           floor_present_[static_cast<std::size_t>(v)] != 0;
  }
  // Deduped fallback accounting: loaders call this exactly once per
  // (frame, group) whose acquire came back with outcome.coarse_fallback, so
  // the global stats().coarse_fallbacks equals the sum of the per-viewer
  // counters.
  void record_coarse_fallback();

 private:
  // Resident, unprotected groups keyed (touch, group): oldest touch first.
  using EvictableSet = std::set<std::pair<std::uint64_t, voxel::DenseVoxelId>>;

  struct Entry {
    DecodedGroup group;
    int tier = 0;       // fidelity of the resident payload (valid when
                        // resident; lower = better)
    int pins = 0;       // outstanding acquires (failed acquires pin too, so
                        // pin/release stays balanced on every path)
    int plan_pins = 0;  // in-flight FramePlans claiming this group (union
                        // of all sessions' working sets)
    bool loading = false;  // fetch in flight; waiters sleep on cv_
    bool resident = false;
    bool evictable = false;  // in evictable_, keyed (touch, group)
    std::uint64_t touch = 0;  // last-touch stamp (valid when resident)
    // The group's evictable_ node while it is out of the set: a pin or an
    // eviction extracts it and the next join reinserts it, so the per-frame
    // pin_plan / unpin_plan churn allocates nothing.
    EvictableSet::node_type node;
    // Failure state, PER TIER (disk errors are tier-scoped: a corrupt L0
    // payload must not poison the group's healthy L1/L2): consecutive
    // failed fetch attempts, the denied-request countdown until the next
    // attempt, the permanent negative-cache bitmask, and the last typed
    // error (shared_ptr: degraded serves hand it out by pointer copy, not
    // a string allocation inside the cache-wide mutex).
    std::array<std::uint8_t, core::kLodTierCount> fail_count{};
    std::array<std::uint32_t, core::kLodTierCount> backoff_remaining{};
    std::uint8_t failed_tiers = 0;  // bit t = tier t negative-cached
    std::shared_ptr<const StreamError> last_error;

    bool tier_failed(int tier) const {
      return (failed_tiers >> tier) & 1u;
    }
  };

  // Fetches v at `tier` into its entry. Caller holds lk; the disk read and
  // decode run unlocked with entry.loading set. When the entry is already
  // resident (an upgrade), waits for pins to drain first, then replaces the
  // payload in place. Returns true with the entry resident at `tier`, or
  // false when the fetch failed — the entry keeps its previous payload (if
  // any), records the error, and advances its retry/backoff state. On
  // EVERY exit, including exceptions, `loading` is cleared and waiters are
  // woken (RAII guard) — a throwing fetch must never wedge the entry.
  // Counts nothing but the failed-group transition: the caller accounts
  // the outcome (count_acquire / count_fetch).
  bool fetch_locked(std::unique_lock<std::mutex>& lk, voxel::DenseVoxelId v,
                    int tier);
  // Reads every group's coarse tier into the floor arena at construction
  // (single-threaded: no lock, no loading marks). All-or-nothing against
  // the floor budget; per-group read errors only leave holes.
  void pin_coarse_floor();
  // Brings v's membership in evictable_ in line with its state; called
  // after every change to pins, plan_pins, loading or resident.
  void sync_evictable_locked(voxel::DenseVoxelId v);
  void evict_over_budget_locked();

  const AssetStore* store_;
  ResidencyCacheConfig config_;
  // Live LRU budget: starts at config_.budget_bytes, re-targeted by
  // set_budget_bytes(). Atomic so budget_bytes() is an exact, lock-free
  // probe for concurrent governors and invariant-checking tests.
  std::atomic<std::uint64_t> budget_bytes_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // signals fetch completion and pin drains
  std::vector<Entry> entries_;  // indexed by dense voxel id
  EvictableSet evictable_;
  std::uint64_t touch_clock_ = 0;
  std::uint64_t resident_bytes_ = 0;
  core::StreamCacheStats stats_;
  // Coarse floor: immutable after construction (pin_coarse_floor), so
  // deadline fallbacks read it without extending the mutex's critical
  // section. Outside the LRU and the main budget by design.
  std::vector<DecodedGroup> floor_;       // indexed by dense voxel id
  std::vector<std::uint8_t> floor_present_;
  std::uint64_t floor_bytes_ = 0;
  int coarse_tier_ = -1;  // -1 = floor disabled
};

}  // namespace sgs::stream
