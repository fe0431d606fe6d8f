#include "stream/streaming_loader.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "gs/projection.hpp"
#include "obs/trace.hpp"

namespace sgs::stream {

std::vector<PrefetchRequest> rank_prefetch_groups(
    const ResidencyCache& cache, const FrameIntent& intent,
    const PrefetchConfig& config) {
  if (intent.camera == nullptr) return {};
  const AssetStore& store = cache.store();
  const gs::Camera& cam = *intent.camera;
  const float rot_env = intent.motion_rotation_rad * kPrefetchLookaheadFrames;
  const float trans_env = intent.motion_translation * kPrefetchLookaheadFrames;

  struct Ranked {
    float depth;
    voxel::DenseVoxelId id;
    std::uint8_t tier;
  };
  std::vector<Ranked> ranked;
  const auto dir = store.directory();
  // One lock per whole-directory scan, not one per group: with many
  // sessions ranking every frame, per-group resident() probes would
  // multiply lock traffic on the mutex the render workers contend on.
  std::vector<std::uint8_t> resident_tiers, failed_tiers;
  cache.ranking_snapshot(&resident_tiers, &failed_tiers);
  for (std::size_t i = 0; i < dir.size(); ++i) {
    const auto v = static_cast<voxel::DenseVoxelId>(i);
    if (dir[i].tiers[0].count == 0) continue;
    const int want = select_group_tier(store, intent, v, config.lod);
    // A negative-cached (group, tier) is not fetch-worthy: its prefetch
    // would be denied, and re-ranking it every frame in every session is
    // exactly the refetch storm the failure domain exists to prevent. The
    // mask is per tier, so a group with a corrupt L0 still prefetches at
    // the healthy tiers a far camera wants.
    if ((failed_tiers[i] >> want) & 1u) continue;
    // Resident at the wanted tier or better: nothing to fetch. A group
    // resident only at a worse tier stays a candidate — its prefetch is
    // the asynchronous upgrade path.
    if (resident_tiers[i] <= static_cast<std::uint8_t>(want)) continue;
    const AssetDirEntry& e = dir[i];
    const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
    const float radius = (e.aabb_max - e.aabb_min).norm() * 0.5f;
    const Vec3f c_cam = cam.world_to_camera(center);
    // Behind the camera even after the envelope's worst-case approach.
    if (c_cam.z + radius + trans_env <= gs::kNearClip) continue;
    const float near_z = std::max(c_cam.z - radius - trans_env, gs::kNearClip);
    // Conservative screen bound: projected AABB radius plus the envelope's
    // depth-independent rotation drift and depth-scaled translation drift
    // (the same decomposition FramePlan::reusable_for uses).
    const float pad_px = cam.focal_max() * (radius + trans_env) / near_z +
                         cam.focal_max() * rot_env;
    if (c_cam.z > gs::kNearClip) {
      const Vec2f uv = cam.project_cam(c_cam);
      if (uv.x < -pad_px || uv.y < -pad_px ||
          uv.x > static_cast<float>(cam.width()) + pad_px ||
          uv.y > static_cast<float>(cam.height()) + pad_px) {
        continue;
      }
    }
    // else: straddles the camera plane — unbounded projection, always rank.
    ranked.push_back({(center - cam.position()).norm(), v,
                      static_cast<std::uint8_t>(want)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.depth != b.depth ? a.depth < b.depth : a.id < b.id;
  });

  // The per-frame byte cap tightens to what the estimated link can move
  // before the deadline when the policy's ABR term is live — prefetch must
  // not over-commit a link the frame's demand traffic also needs.
  std::uint64_t max_bytes = config.max_bytes_per_frame;
  const std::uint64_t abr_bytes = abr_frame_budget_bytes(config.lod);
  if (abr_bytes > 0) max_bytes = std::min(max_bytes, abr_bytes);

  std::vector<PrefetchRequest> batch;
  std::uint64_t bytes = 0;
  for (const Ranked& r : ranked) {
    if (batch.size() >= config.max_groups_per_frame) break;
    // Each candidate costs its own tier's payload, not the full group:
    // the same byte budget prefetches further ahead on pruned tiers.
    const std::uint64_t b = store.tier_extent(r.id, r.tier).bytes;
    if (bytes + b > max_bytes && !batch.empty()) break;
    PrefetchRequest req;
    req.id = r.id;
    req.tier = r.tier;
    // The queue's ordering key IS the ranking: near-to-far camera
    // distance, so a shared queue interleaves sessions by urgency instead
    // of batch arrival order.
    req.priority = r.depth;
    batch.push_back(req);
    bytes += b;
  }
  return batch;
}

// ------------------------------------------------- PrefetchPriorityQueue --

bool PrefetchPriorityQueue::push(const PrefetchRequest& request) {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto [it, inserted] =
      pending_.try_emplace(key(request.scene, request.id), request.tier);
  if (!inserted) {
    if (request.tier >= it->second) {
      // Already pending at the same or a better tier: that fetch serves
      // this request too.
      ++merged_;
      return false;
    }
    // Strictly better tier supersedes the pending one; the old heap node
    // goes stale (its tier no longer matches) and is skipped at pop.
    it->second = request.tier;
  }
  heap_.push_back(Node{request.priority, request.id, request.scene,
                       request.tier, request.deadline_ns, request.sink});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return true;
}

bool PrefetchPriorityQueue::pop(PrefetchRequest* out, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lk(mutex_);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Node node = heap_.back();
    heap_.pop_back();
    const auto it = pending_.find(key(node.scene, node.id));
    // Stale node: superseded by a better-tier push (its live node is still
    // in the heap) or already served by an earlier pop.
    if (it == pending_.end() || it->second != node.tier) continue;
    pending_.erase(it);
    if (node.deadline_ns != kNoFetchDeadline && now_ns >= node.deadline_ns) {
      // The frame this request served is already over; fetching now would
      // spend the byte budget on the past.
      ++expired_;
      continue;
    }
    out->id = node.id;
    out->scene = node.scene;
    out->tier = node.tier;
    out->priority = node.priority;
    out->deadline_ns = node.deadline_ns;
    out->sink = node.sink;
    return true;
  }
  return false;
}

std::size_t PrefetchPriorityQueue::pending() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return pending_.size();
}

std::uint64_t PrefetchPriorityQueue::merged() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return merged_;
}

std::uint64_t PrefetchPriorityQueue::expired() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return expired_;
}

// --------------------------------------------------- SharedPrefetchQueue --

SharedPrefetchQueue::SharedPrefetchQueue(ResidencyCache& cache,
                                         PrefetchConfig config)
    : shards_{&cache}, config_(config) {}

SharedPrefetchQueue::SharedPrefetchQueue(std::vector<ResidencyCache*> shards,
                                         PrefetchConfig config)
    : shards_(std::move(shards)), config_(config) {
  if (shards_.empty()) {
    throw std::invalid_argument("SharedPrefetchQueue: no shards");
  }
  for (const ResidencyCache* shard : shards_) {
    if (shard == nullptr) {
      throw std::invalid_argument("SharedPrefetchQueue: null shard");
    }
  }
}

SharedPrefetchQueue::~SharedPrefetchQueue() { wait_idle(); }

std::size_t SharedPrefetchQueue::enqueue(const FrameIntent& intent,
                                         SessionCacheStats* sink,
                                         const LodPolicy* lod,
                                         std::uint32_t scene) {
  ResidencyCache& shard = *shards_.at(scene);
  PrefetchConfig cfg = config_;
  if (lod != nullptr) cfg.lod = *lod;
  std::vector<PrefetchRequest> ranked =
      rank_prefetch_groups(shard, intent, cfg);
  // Push against every viewer's pending requests: a (scene, group) already
  // queued at the same or a better tier merges away — fetching it again
  // would only duplicate the read. A strictly better tier supersedes the
  // pending mark and fetches (the cache turns it into an in-place upgrade).
  std::size_t queued = 0;
  for (PrefetchRequest& r : ranked) {
    r.scene = scene;
    r.sink = sink;
    if (queue_.push(r)) ++queued;
  }
  // Even an empty ranking drains: urgent re-queues from an earlier frame
  // must not rot in a synchronous queue.
  if (queue_.pending() == 0) return queued;
  if (config_.synchronous) {
    drain();
  } else {
    // Every drain runs the shared queue dry, most-urgent-first across all
    // viewers — a request pushed before this drain task pops it is served
    // no later than this task, whoever pushed it.
    async_submit([this] { drain(); });
  }
  return queued;
}

void SharedPrefetchQueue::requeue_urgent(voxel::DenseVoxelId id,
                                         std::uint8_t tier,
                                         SessionCacheStats* sink,
                                         std::uint32_t scene) {
  (void)shards_.at(scene);  // validate before push: drain() indexes by it
  PrefetchRequest r;
  r.id = id;
  r.scene = scene;
  r.tier = tier;
  r.priority = kUrgentPriority;
  r.sink = sink;
  if (!queue_.push(r)) return;
  // Synchronous mode: draining here would block the render worker that hit
  // the deadline — the very stall the fallback avoided. The next enqueue
  // drains it.
  if (!config_.synchronous) async_submit([this] { drain(); });
}

void SharedPrefetchQueue::drain() {
  SGS_TRACE_SPAN("prefetch", "prefetch_batch", "pending", queue_.pending());
  // A failed group must not abort the rest of the queue: prefetch_checked
  // never throws, so the loop continues past per-group errors and counts
  // them into the requesting viewer's attribution sink.
  PrefetchRequest r;
  while (queue_.pop(&r, core::stage_clock_ns())) {
    std::uint64_t bytes = 0;
    std::uint64_t ns = 0;
    // r.scene was validated at push (enqueue/requeue index shards_ by it).
    const PrefetchResult result =
        shards_[r.scene]->prefetch_checked(r.id, r.tier, &bytes, &ns);
    if (r.sink != nullptr) {
      if (result == PrefetchResult::kFetched) {
        r.sink->record_prefetch(bytes, r.tier, ns);
      } else if (result == PrefetchResult::kErrored) {
        r.sink->record_prefetch_error();
      }
    }
  }
}

void SharedPrefetchQueue::wait_idle() const { async_wait_idle(); }

// ------------------------------------------------------- StreamingLoader --

StreamingLoader::StreamingLoader(ResidencyCache& cache, PrefetchConfig config)
    : owned_queue_(std::make_unique<SharedPrefetchQueue>(cache, config)),
      queue_(owned_queue_.get()),
      cache_(&cache),
      lod_(config.lod) {}

StreamingLoader::StreamingLoader(SharedPrefetchQueue& queue, LodPolicy lod,
                                 std::uint32_t scene)
    : queue_(&queue), cache_(&queue.cache(scene)), lod_(lod), scene_(scene) {}

StreamingLoader::~StreamingLoader() { wait_idle(); }

void StreamingLoader::begin_frame(
    const FrameIntent& intent,
    std::span<const voxel::DenseVoxelId> plan_voxels) {
  // Pin the plan's working set: whether or not a candidate is resident yet,
  // it must not be evicted while the frame is in flight (views into it may
  // outlive their release()). Refcounted in the cache, so other viewers'
  // pins on the same groups are independent.
  pinned_.assign(plan_voxels.begin(), plan_voxels.end());
  cache_->pin_plan(pinned_);
  // ABR: fold this loader's measured link estimate into the frame's policy
  // before selection (each viewer adapts to the throughput IT observed).
  // Selection stays a pure function of its inputs — the estimate rides in
  // as an explicit field, not shared state.
  LodPolicy lod = lod_;
  if (lod.abr_frame_budget_ns > 0 && lod.link_bandwidth_bytes_per_sec <= 0.0) {
    lod.link_bandwidth_bytes_per_sec =
        counters_.estimator().bandwidth_bytes_per_sec();
  }
  // Tier selection for this frame's plan: acquire() consults it per group.
  // Recomputed every frame — a camera-less intent must reset the map to
  // all-L0, not leave the previous frame's pruned tiers in force.
  selection_ = select_frame_tiers(cache_->store(), intent, pinned_, lod);
  counters_.record_abr_demotions(selection_.abr_demoted);
  // Resolve this frame's demand-fetch deadline to an absolute stage-clock
  // instant.
  const std::uint64_t rel = queue_->config().fetch_deadline_ns;
  frame_deadline_ns_ =
      rel == kNoFetchDeadline ? kNoFetchDeadline : core::stage_clock_ns() + rel;
  {
    std::lock_guard<std::mutex> lk(fallback_mutex_);
    fallback_seen_.clear();
  }
  // Rank under the ABR-adjusted policy so the prefetch byte cap tracks the
  // same link estimate the tier selection just used.
  queue_->enqueue(intent, &counters_, &lod, scene_);
}

void StreamingLoader::end_frame() {
  cache_->unpin_plan(pinned_);
  pinned_.clear();
}

GroupView StreamingLoader::acquire(voxel::DenseVoxelId v) {
  const int tier = selection_.tier_of(v);
  const AcquireOutcome outcome =
      cache_->acquire_outcome(v, tier, frame_deadline_ns_);
  counters_.record_acquire(outcome);
  if (outcome.coarse_fallback) {
    bool first = false;
    {
      std::lock_guard<std::mutex> lk(fallback_mutex_);
      first = fallback_seen_.insert(v).second;
    }
    if (first) {
      // Once per (frame, group), credited to this loader AND the cache from
      // the same dedup site — per-viewer coarse_fallbacks sum exactly to
      // the cache's counter — and the wanted tier re-queued ahead of every
      // ranked candidate so the group streams in at full fidelity for the
      // frames that follow.
      counters_.record_coarse_fallback();
      cache_->record_coarse_fallback();
      queue_->requeue_urgent(v, static_cast<std::uint8_t>(tier), &counters_,
                             scene_);
    }
  }
  return outcome.view;
}

void StreamingLoader::release(voxel::DenseVoxelId v) { cache_->release(v); }

core::StreamCacheStats StreamingLoader::stats() const {
  core::StreamCacheStats s = counters_.snapshot();
  if (owned_queue_ == nullptr) return s;  // a serve session: its own share
  // A single viewer is its cache's only client: report the cache's global
  // counters, evictions included. Demotion is a front-end decision the
  // cache never sees, so it comes from this loader's own counters.
  const std::uint64_t demotions = s.abr_demotions;
  s = cache_->stats();
  s.abr_demotions = demotions;
  return s;
}

void StreamingLoader::wait_idle() const { queue_->wait_idle(); }

}  // namespace sgs::stream
