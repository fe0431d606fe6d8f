// StreamingLoader: the one per-frame front-end of out-of-core rendering —
// the GroupSource a single viewer and every serve session render through —
// plus the shared, session-aware fetch queue it schedules prefetch on.
//
// A loader sits over one ResidencyCache shard and a SharedPrefetchQueue
// (its own one-scene queue for a single viewer, the server's shared queue
// for a serve session). Its frame bracket is the whole per-frame loop:
//   begin_frame  pins the plan's working set (ResidencyCache::pin_plan),
//                folds the loader's measured link estimate into its
//                LodPolicy's ABR term, selects a payload tier per plan
//                group, resolves the frame's demand-fetch deadline, and
//                ranks + enqueues the frame's prefetch work;
//   acquire      requests the selected tier (so distant groups stream
//                importance-pruned subsets), attributes the outcome to the
//                loader's SessionCacheStats, and — once per (frame, group)
//                — counts a deadline fallback and re-queues its wanted
//                tier at kUrgentPriority;
//   end_frame    drops exactly the pins begin_frame took.
// A demand miss still stalls the render worker that hits it; the loader's
// job is making those stalls rare.
//
// Ranking (rank_prefetch_groups): a group is a candidate when its directory
// AABB, padded by the envelope's worst-case projection drift, touches the
// image rect and it is not already resident at (or better than) the tier
// the policy wants for it; candidates are ordered near-to-far (near groups
// are streamed by more pixel groups and occlude far ones). Per frame,
// fetches are capped by a group-count and a byte budget — the
// fetch-bandwidth knob — with each candidate charged at its tier's bytes.
//
// Prefetch scheduling is a PRIORITY queue, not a FIFO: loaders push
// PrefetchRequests — priority = the ranking's near-to-far depth, ties
// broken by ascending group id so equal-rank order is deterministic — into
// a PrefetchPriorityQueue and drain it most-urgent-first. A demand acquire
// that missed its frame's fetch deadline (served from the cache's coarse
// floor, see residency_cache.hpp) re-queues its wanted tier at
// kUrgentPriority, ahead of every ranked candidate, so the group streams
// in at full fidelity for the following frames instead of being blocked
// on. Requests may carry their own deadline; a request that expires before
// its pop is dropped (PrefetchPriorityQueue::expired()) — its frame is
// already over.
//
// SharedPrefetchQueue holds ONE priority queue over one or more per-scene
// cache shards (requests are keyed by (scene, group, tier)). Requests for a
// (scene, group) already pending at the same or a better tier are merged
// (fetched once, counted in merged()), and every drain task runs the queue
// dry — so no session starves: a request pushed before batch k's drain is
// fetched no later than that drain, regardless of which session or scene
// pushed it.
//
// Thread-safety: a loader has one driving viewer (its frames are
// sequential), but acquire() runs on every render worker and its fetches
// run concurrently with them. SharedPrefetchQueue::enqueue and
// requeue_urgent are safe from any number of threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stream/bandwidth_estimator.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"

namespace sgs::stream {

class SessionCacheStats;

// The motion envelope is assumed to persist for this many frames: the
// visibility pad grows with it, so the prefetcher looks further ahead along
// the camera's drift than a single frame's reuse bound.
inline constexpr float kPrefetchLookaheadFrames = 4.0f;

struct PrefetchConfig {
  // Per-frame fetch-ahead caps (bandwidth budget per frame).
  std::size_t max_groups_per_frame = 64;
  std::uint64_t max_bytes_per_frame = 16ull << 20;
  // Fetch inline inside begin_frame/enqueue instead of on the async lane.
  // Slower (the fetch no longer overlaps rendering) but fully deterministic
  // — what the golden tests and reproducible benchmarks use.
  bool synchronous = false;
  // Per-frame demand-fetch deadline, RELATIVE nanoseconds from
  // begin_frame. kNoFetchDeadline keeps demand misses blocking (the
  // bit-exact pre-floor behavior); 0 expires instantly, so every miss of a
  // floor-backed group serves the coarse tier — deterministic zero-stall.
  std::uint64_t fetch_deadline_ns = kNoFetchDeadline;
  // Tier selection for plan groups and prefetch candidates. The defaults
  // adapt on multi-tier stores and degenerate to L0 on v1 stores;
  // lod.force_tier0 restores bit-exact out-of-core rendering everywhere.
  LodPolicy lod;
};

// Priority of deadline-fallback re-queues: sorts ahead of every ranked
// candidate (ranking priorities are camera distances, >= 0).
inline constexpr float kUrgentPriority = -1.0f;

// One group worth fetching, at the tier the policy wants it. Requests are
// keyed by (scene, group, tier): `scene` indexes the shard cache of a
// multi-scene SharedPrefetchQueue (always 0 for a single viewer), so two
// scenes' groups with the same dense id never merge.
struct PrefetchRequest {
  voxel::DenseVoxelId id = 0;
  std::uint32_t scene = 0;
  std::uint8_t tier = 0;
  // Queue ordering key: lower pops first (the ranking stores its
  // near-to-far camera distance here; demand re-queues use
  // kUrgentPriority). Ties pop by ascending group id — deterministic.
  float priority = 0.0f;
  // Drop-dead time on core::stage_clock_ns: a request still pending at its
  // deadline is dropped at pop (the frame that wanted it is already
  // over). kNoFetchDeadline = never expires.
  std::uint64_t deadline_ns = kNoFetchDeadline;
  // Attribution sink credited if this request's fetch lands (nullable).
  SessionCacheStats* sink = nullptr;
};

// The deduplicated, deadline-aware priority queue under every
// SharedPrefetchQueue. push() merges against pending work: a group already
// pending at the same or a better tier absorbs the new request (merged(),
// dropped); a strictly better tier supersedes the pending one. pop()
// yields the most urgent live request — lowest priority value first, ties
// by ascending group id — dropping expired requests (expired()) on the
// way. Thread-safe; pop order for a fixed push set is deterministic.
class PrefetchPriorityQueue {
 public:
  // True when the request entered the queue; false when it was merged into
  // a pending same-or-better request.
  bool push(const PrefetchRequest& request);
  // Pops the most urgent live request into *out. False when the queue ran
  // dry. `now_ns` is the expiry clock (pass core::stage_clock_ns()).
  bool pop(PrefetchRequest* out, std::uint64_t now_ns);
  // Pending (pushed, not yet popped or merged-away) requests.
  std::size_t pending() const;
  // Requests absorbed by an already-pending same-or-better request.
  std::uint64_t merged() const;
  // Requests dropped at pop because their deadline had passed.
  std::uint64_t expired() const;

 private:
  struct Node {
    float priority = 0.0f;
    voxel::DenseVoxelId id = 0;
    std::uint32_t scene = 0;
    std::uint8_t tier = 0;
    std::uint64_t deadline_ns = kNoFetchDeadline;
    SessionCacheStats* sink = nullptr;
  };
  // Min-heap order: lowest (priority, scene, id) pops first — scene joins
  // the tie-break so equal-rank pop order stays deterministic on a
  // multi-scene queue.
  static bool later(const Node& a, const Node& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.scene != b.scene) return a.scene > b.scene;
    return a.id > b.id;
  }
  // Dedup key: requests merge per (scene, group); the mapped value is the
  // best tier pending for that pair.
  static std::uint64_t key(std::uint32_t scene, voxel::DenseVoxelId id) {
    return (std::uint64_t{scene} << 32) |
           static_cast<std::uint32_t>(id);
  }

  mutable std::mutex mutex_;
  std::vector<Node> heap_;
  // (scene, group) -> best tier pending. A heap node whose tier no longer
  // matches was superseded by a better-tier push and is skipped at pop
  // (lazy deletion keeps push O(log n) without heap surgery).
  std::unordered_map<std::uint64_t, std::uint8_t> pending_;
  std::uint64_t merged_ = 0;
  std::uint64_t expired_ = 0;
};

// Fetch-worthy groups for `intent` against `cache`'s store, best first
// (near-to-far), capped by the config's group/byte budgets. A group
// qualifies when it is absent or resident only at a worse tier than
// config.lod wants. The ranking SharedPrefetchQueue::enqueue runs.
std::vector<PrefetchRequest> rank_prefetch_groups(
    const ResidencyCache& cache, const FrameIntent& intent,
    const PrefetchConfig& config);

// Thread-safe per-viewer cache-counter sink. A loader and the shared fetch
// queue both credit it: render workers record hits/misses concurrently
// while the async lane records the prefetches this viewer's intents
// initiated.
class SessionCacheStats {
 public:
  void record_acquire(const AcquireOutcome& outcome) {
    std::lock_guard<std::mutex> lk(mutex_);
    count_acquire(stats_, outcome);
    if (outcome.group_failed) failed_seen_.insert(outcome.group);
    if (outcome.missed) {
      estimator_.observe(outcome.bytes_fetched, outcome.fetch_ns);
    }
  }
  // Called once per (frame, group) served from the coarse floor — the
  // loader dedups, so per-viewer counters sum to the cache's global one.
  void record_coarse_fallback() {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.coarse_fallbacks;
  }
  // `net_ns` is the backend transfer time of the fetch (0 on a local disk
  // or perfect link) — it feeds this session's net counters and bandwidth
  // estimate alongside the byte traffic.
  void record_prefetch(std::uint64_t bytes, int tier = 0,
                       std::uint64_t net_ns = 0) {
    std::lock_guard<std::mutex> lk(mutex_);
    count_fetch(stats_, bytes, tier, net_ns, /*is_prefetch=*/true);
    estimator_.observe(bytes, net_ns);
  }
  // ABR demotions this session's frame selection charged to the throughput
  // term (TierSelection::abr_demoted, credited once per begin_frame).
  void record_abr_demotions(std::uint32_t n) {
    if (n == 0) return;
    std::lock_guard<std::mutex> lk(mutex_);
    stats_.abr_demotions += n;
  }
  // This viewer's measured link estimate: what its loader copies into
  // LodPolicy::link_bandwidth_bytes_per_sec before tier selection. Reads
  // 0 until a transfer with non-zero duration completes.
  const BandwidthEstimator& estimator() const { return estimator_; }
  // A prefetch this session requested was attempted and errored (the batch
  // continues past it; the error is attributed here). Unlike the traffic
  // counters, errors are not tier-resolved in StreamCacheStats.
  void record_prefetch_error() {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.fetch_errors;
  }
  core::StreamCacheStats snapshot() const {
    std::lock_guard<std::mutex> lk(mutex_);
    core::StreamCacheStats s = stats_;
    // Session scope: DISTINCT permanently-failed groups this session
    // touched (the shared cache's counter is the global transition count).
    s.failed_groups = failed_seen_.size();
    return s;
  }

 private:
  mutable std::mutex mutex_;
  core::StreamCacheStats stats_;  // evictions stay 0: they are a property
                                  // of the shared cache, not of a session
  std::unordered_set<voxel::DenseVoxelId> failed_seen_;
  // Per-session link estimate over the transfers attributed to this
  // session (demand misses + credited prefetches). Own mutex: observe()
  // is called under mutex_, and the estimator's lock is a leaf.
  BandwidthEstimator estimator_;
};

// One fetch queue shared by N viewers over one or more per-scene
// ResidencyCache shards.
//
// Each loader calls enqueue() at the top of its frame with its camera
// intent, its scene index, its SessionCacheStats sink for attribution and
// its frame's LodPolicy (ABR term already filled). The queue ranks the
// viewer's candidates against ITS scene's shard and pushes them into the
// shared PrefetchPriorityQueue keyed by (scene, group, tier) — groups
// already pending for *any* viewer of the same scene at the same or a
// better tier merge away (the request is served by the fetch already on
// its way); requests from different scenes never merge — then schedules a
// drain on the async FIFO lane. Every drain runs the queue dry,
// most-urgent-first across all scenes and viewers, so service is bounded
// for every viewer: a request pushed before batch k's drain is fetched no
// later than that drain, whoever pushed it.
class SharedPrefetchQueue {
 public:
  // Single-scene queue: one cache, scene index 0.
  explicit SharedPrefetchQueue(ResidencyCache& cache,
                               PrefetchConfig config = {});
  // Multi-scene queue: shards[k] is scene k's cache. The shard set is
  // fixed for the queue's lifetime; every shard must outlive it. Throws
  // std::invalid_argument on an empty or null-holding shard list.
  SharedPrefetchQueue(std::vector<ResidencyCache*> shards,
                      PrefetchConfig config = {});
  // Drains in-flight batches (their tasks capture `this`).
  ~SharedPrefetchQueue();

  // Ranks + enqueues one viewer's prefetch work against scene `scene`'s
  // shard. Returns the number of groups newly queued (after merging with
  // other viewers' pending requests). `sink`, when non-null, is credited
  // for every group this call's batch actually fetches — including fetches
  // that land after the viewer's frame ended (the counters are cumulative
  // and monotone). `lod`, when non-null, overrides the queue config's
  // policy — the per-viewer quality knob. Throws std::out_of_range for an
  // unknown scene.
  std::size_t enqueue(const FrameIntent& intent,
                      SessionCacheStats* sink = nullptr,
                      const LodPolicy* lod = nullptr,
                      std::uint32_t scene = 0);

  // Deadline-fallback re-queue: pushes (scene, id, tier) at
  // kUrgentPriority so the group a viewer just served from the coarse
  // floor streams in at its wanted tier ahead of every ranked candidate.
  // Schedules a drain unless the queue is synchronous (then the next
  // enqueue drains it). Safe from any render worker.
  void requeue_urgent(voxel::DenseVoxelId id, std::uint8_t tier,
                      SessionCacheStats* sink = nullptr,
                      std::uint32_t scene = 0);

  // Blocks until every batch enqueued before this call has landed.
  void wait_idle() const;

  // The shared priority queue: pending() is 0 after a wait_idle with no
  // concurrent enqueues (nothing starves), merged() counts requests a
  // pending same-or-better request absorbed (the fetch traffic the merge
  // saved), expired() those dropped past their deadline.
  const PrefetchPriorityQueue& queue() const { return queue_; }

  ResidencyCache& cache(std::uint32_t scene = 0) {
    return *shards_.at(scene);
  }
  const PrefetchConfig& config() const { return config_; }

 private:
  void drain();

  std::vector<ResidencyCache*> shards_;  // indexed by scene
  PrefetchConfig config_;
  PrefetchPriorityQueue queue_;
};

class StreamingLoader final : public GroupSource {
 public:
  // Single viewer: owns a one-scene SharedPrefetchQueue over `cache` with
  // config's caps, deadline and lane mode, and streams under config.lod.
  // stats() reports the cache's global counters (evictions included) with
  // this loader's ABR demotions.
  explicit StreamingLoader(ResidencyCache& cache, PrefetchConfig config = {});
  // Serve session: streams scene `scene` of a server's shared `queue` —
  // whose config supplies the caps, deadline and lane mode — under its own
  // `lod`. stats() reports this session's attributed traffic only
  // (evictions stay 0: they belong to the shared shard). Throws
  // std::out_of_range for an unknown scene.
  StreamingLoader(SharedPrefetchQueue& queue, LodPolicy lod,
                  std::uint32_t scene);
  // Drains in-flight async fetches (they credit this loader's counters).
  ~StreamingLoader() override;

  void begin_frame(const FrameIntent& intent,
                   std::span<const voxel::DenseVoxelId> plan_voxels) override;
  void end_frame() override;
  GroupView acquire(voxel::DenseVoxelId v) override;
  void release(voxel::DenseVoxelId v) override;
  core::StreamCacheStats stats() const override;

  // Blocks until all submitted prefetch batches have landed.
  void wait_idle() const;

  // The last begin_frame's tier selection (histogram + demotions), for
  // reporting degraded frames. Valid between begin_frame and the next.
  const TierSelection& frame_selection() const { return selection_; }

  // The priority queue this loader schedules on (pending/merged/expired).
  const PrefetchPriorityQueue& queue() const { return queue_->queue(); }

  // The link estimate over this loader's completed demand + prefetch
  // transfers. begin_frame folds it into tier selection when the LodPolicy
  // enables the ABR term (abr_frame_budget_ns > 0).
  const BandwidthEstimator& estimator() const {
    return counters_.estimator();
  }

  // Scene index this loader streams (0 for a single viewer).
  std::uint32_t scene() const { return scene_; }

 private:
  // Set for a single viewer only; queue_ points at it or at the server's.
  std::unique_ptr<SharedPrefetchQueue> owned_queue_;
  SharedPrefetchQueue* queue_;
  ResidencyCache* cache_;
  LodPolicy lod_;
  std::uint32_t scene_ = 0;
  // Every hit, miss, prefetch, fallback and demotion this loader caused;
  // also the home of its BandwidthEstimator.
  SessionCacheStats counters_;
  std::vector<voxel::DenseVoxelId> pinned_;  // this frame's plan pins
  TierSelection selection_;  // tier_by_group consulted by acquire()
  // This frame's absolute demand-fetch deadline on core::stage_clock_ns
  // (computed in begin_frame from the intent's/queue's relative budget).
  std::uint64_t frame_deadline_ns_ = kNoFetchDeadline;
  // Groups already served from the coarse floor this frame: acquire() runs
  // on every render worker, but the fallback counter and the urgent
  // re-queue must fire once per (frame, group).
  std::mutex fallback_mutex_;
  std::unordered_set<voxel::DenseVoxelId> fallback_seen_;
};

}  // namespace sgs::stream
