#include "stream/residency_cache.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <new>
#include <utility>

#include "obs/trace.hpp"

namespace sgs::stream {

ResidencyCache::ResidencyCache(const AssetStore& store,
                               ResidencyCacheConfig config)
    : store_(&store),
      config_(config),
      budget_bytes_(config.budget_bytes),
      entries_(static_cast<std::size_t>(store.group_count())) {
  if (config_.coarse_floor_budget_bytes > 0 && store.has_coarse_tier()) {
    pin_coarse_floor();
  }
}

void ResidencyCache::pin_coarse_floor() {
  const int tier = store_->coarse_tier();
  const auto dir = store_->directory();
  // Predict the decoded floor from the directory alone: decoded records are
  // fixed-width columns, so the floor costs kept-residents x
  // kBytesPerRecord regardless of SH truncation. All-or-nothing: a floor
  // that does not fit is disabled before a single byte is read — a partial
  // floor would let acquire "never block" for some groups and stall on the
  // rest, the worst of both behaviors.
  std::uint64_t predicted = 0;
  for (const AssetDirEntry& e : dir) {
    predicted += std::uint64_t{e.tiers[static_cast<std::size_t>(tier)].count} *
                 gs::GaussianColumns::kBytesPerRecord;
  }
  if (predicted > config_.coarse_floor_budget_bytes) {
    SGS_TRACE_INSTANT("cache", "coarse_floor_disabled", "predicted_bytes",
                      predicted, "budget_bytes",
                      config_.coarse_floor_budget_bytes);
    return;
  }
  SGS_TRACE_SPAN("cache", "pin_coarse_floor", "groups",
                 static_cast<std::uint64_t>(dir.size()));
  floor_.resize(entries_.size());
  floor_present_.assign(entries_.size(), 0);
  for (std::size_t i = 0; i < dir.size(); ++i) {
    if (dir[i].tiers[0].count == 0) continue;  // empty groups need no floor payload
    const auto v = static_cast<voxel::DenseVoxelId>(i);
    StreamResult<DecodedGroup> read = store_->read_group_checked(v, tier);
    if (!read.ok()) {
      // A hole, not a poisoned runtime state: this group's demand path
      // keeps its full retry budget — only the one-shot floor pin is
      // missing, so its acquires fall back to the blocking path.
      ++stats_.fetch_errors;
      entries_[i].last_error =
          std::make_shared<const StreamError>(read.take_error());
      continue;
    }
    floor_[i] = read.take();
    floor_bytes_ += floor_[i].resident_bytes();
    floor_present_[i] = 1;
  }
  coarse_tier_ = tier;
}

void ResidencyCache::record_coarse_fallback() {
  std::lock_guard<std::mutex> lk(mutex_);
  ++stats_.coarse_fallbacks;
}

void ResidencyCache::pin_plan(std::span<const voxel::DenseVoxelId> voxels) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const voxel::DenseVoxelId v : voxels) {
    ++entries_[static_cast<std::size_t>(v)].plan_pins;
    sync_evictable_locked(v);
  }
}

void ResidencyCache::unpin_plan(std::span<const voxel::DenseVoxelId> voxels) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const voxel::DenseVoxelId v : voxels) {
    Entry& e = entries_[static_cast<std::size_t>(v)];
    assert(e.plan_pins > 0);
    --e.plan_pins;
    sync_evictable_locked(v);
  }
  // Pins may have carried residency above budget; drain the overshoot now.
  // (Unconditional: a viewer that pinned nothing still gets the drain.)
  evict_over_budget_locked();
}

AcquireOutcome ResidencyCache::acquire_outcome(voxel::DenseVoxelId v, int tier,
                                               std::uint64_t deadline_ns) {
  std::unique_lock<std::mutex> lk(mutex_);
  Entry& e = entries_[static_cast<std::size_t>(v)];
  AcquireOutcome out;
  out.group = v;
  out.requested_tier = tier;
  // The deadline can only divert to a payload that exists: the pinned
  // floor (immutable after construction) or a stale resident tier
  // (re-checked at the decision points — residency moves while we wait).
  const bool floor_here = coarse_floor_resident(v);
  bool fallback = false;
  for (;;) {
    if (e.loading) {
      if (deadline_ns != kNoFetchDeadline && (floor_here || e.resident)) {
        // Someone else's fetch is in flight. Sleeping past the deadline is
        // exactly the stall the deadline exists to kill: wait only until
        // it, then serve the fallback (the in-flight fetch still lands and
        // serves future frames).
        const auto until = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(deadline_ns));
        if (!cv_.wait_until(lk, until, [&e] { return !e.loading; })) {
          fallback = true;
          break;
        }
      } else {
        // Another worker (or the prefetcher) is fetching this group; its
        // arrival serves this acquire without paying a fetch: a hit, as
        // long as the arriving tier satisfies the request (re-checked
        // below).
        cv_.wait(lk, [&e] { return !e.loading; });
      }
      continue;
    }
    if (e.resident && e.tier <= tier) break;
    // Demand miss (absent) or upgrade (resident at a worse tier): this
    // render worker wants a fetch either way. Error gating first — a
    // negative-cached or backing-off (group, tier) is served degraded
    // without touching the disk (that is the whole point of the negative
    // cache). The state is tier-scoped: a corrupt L0 payload leaves this
    // same group's L1/L2 requests fetching normally.
    const auto t = static_cast<std::size_t>(tier);
    if (e.tier_failed(tier) || e.backoff_remaining[t] > 0) {
      if (!e.tier_failed(tier)) --e.backoff_remaining[t];
      SGS_TRACE_INSTANT("cache", "degraded", "group",
                        static_cast<std::uint64_t>(v), "tier",
                        static_cast<std::uint64_t>(tier));
      out.degraded = true;
      out.group_failed = e.tier_failed(tier);
      out.error = e.last_error;
      break;
    }
    // Deadline gate: the wanted fetch would block past the deadline. With
    // a fallback payload available, serve it instead of the disk; without
    // one, fall through to the blocking path — a deadline bounds stalls,
    // it never invents pixels.
    if (deadline_ns != kNoFetchDeadline && (floor_here || e.resident) &&
        core::stage_clock_ns() >= deadline_ns) {
      fallback = true;
      break;
    }
    const bool upgrade_attempt = e.resident;
    if (!fetch_locked(lk, v, tier)) {
      // The fetch failed: serve the stale resident payload when there is
      // one (a failed upgrade keeps its old tier), an empty view otherwise
      // — the frame renders without this group instead of dying with it.
      SGS_TRACE_INSTANT("cache", "degraded", "group",
                        static_cast<std::uint64_t>(v), "tier",
                        static_cast<std::uint64_t>(tier));
      out.degraded = true;
      out.fetch_errored = true;
      out.group_failed = e.tier_failed(tier);
      out.error = e.last_error;
      break;
    }
    out.upgraded = upgrade_attempt;
    out.missed = true;
    out.bytes_fetched = e.group.payload_bytes;
    out.fetch_ns = e.group.fetch_ns;
  }
  // Pin on every path — including degraded empty views and floor serves —
  // so the caller's unconditional release() stays balanced.
  ++e.pins;
  sync_evictable_locked(v);
  if (e.resident) {
    e.touch = ++touch_clock_;  // pinned, so not in evictable_ to re-key
    // Eviction runs only now, with the new entry pinned: with every other
    // group pinned the pass could otherwise evict the group this very call
    // just fetched (fetch_locked defers eviction for exactly that reason).
    if (out.missed) evict_over_budget_locked();
    if (fallback) {
      // Stale-tier fallback: served what is already here, no disk touch —
      // a hit at the stale tier (the caller paid no fetch). The front-end
      // re-queues the wanted tier as an urgent prefetch.
      out.coarse_fallback = true;
      SGS_TRACE_INSTANT("cache", "coarse_fallback", "group",
                        static_cast<std::uint64_t>(v), "tier",
                        static_cast<std::uint64_t>(e.tier));
    }
    out.served_tier = e.tier;
    out.view.model_indices = e.group.model_indices;
    out.view.cols = &e.group.cols;
    out.view.first = 0;
  } else if (fallback || (out.degraded && floor_here)) {
    // Floor serve: the pinned coarse payload, immortal for the cache's
    // lifetime — the view needs no residency protection (the pin above
    // only keeps release() balanced). A deadline fallback counts as a hit
    // at the floor tier; a degraded (error-state) serve keeps its miss
    // accounting and merely upgrades the empty view to the floor payload.
    const DecodedGroup& g = floor_[static_cast<std::size_t>(v)];
    if (fallback) {
      out.coarse_fallback = true;
      SGS_TRACE_INSTANT("cache", "coarse_fallback", "group",
                        static_cast<std::uint64_t>(v), "tier",
                        static_cast<std::uint64_t>(coarse_tier_));
    }
    out.served_tier = coarse_tier_;
    out.view.model_indices = g.model_indices;
    out.view.cols = &g.cols;
    out.view.first = 0;
  } else {
    // Nothing to serve: an empty view the pipeline streams zero residents
    // through (the rest of the frame is unaffected).
    out.served_tier = -1;
    out.view.model_indices = {};
    out.view.cols = nullptr;
    out.view.first = 0;
  }
  count_acquire(stats_, out);
  return out;
}

void ResidencyCache::release(voxel::DenseVoxelId v) {
  std::lock_guard<std::mutex> lk(mutex_);
  Entry& e = entries_[static_cast<std::size_t>(v)];
  // Degraded (empty-view) acquires pin non-resident entries, so residency
  // is not implied here — only pin balance is.
  assert(e.pins > 0);
  --e.pins;
  sync_evictable_locked(v);
  // An upgrade may be parked on this group waiting for views to drain.
  if (e.pins == 0 && e.loading) cv_.notify_all();
}

PrefetchResult ResidencyCache::prefetch_checked(voxel::DenseVoxelId v,
                                                int tier,
                                                std::uint64_t* fetched_bytes,
                                                std::uint64_t* fetched_ns) {
  std::unique_lock<std::mutex> lk(mutex_);
  Entry& e = entries_[static_cast<std::size_t>(v)];
  if (e.loading) return PrefetchResult::kSkipped;
  if (e.resident && e.tier <= tier) return PrefetchResult::kSkipped;
  // Upgrading a group someone is reading would block the async lane on the
  // readers; leave it to the next demand acquire instead.
  if (e.resident && e.pins > 0) return PrefetchResult::kSkipped;
  // Negative cache: a corrupt payload is re-requested by ranking every
  // frame and every session; each denial must cost a counter decrement,
  // not a disk read — that is what turns one bad payload from a refetch
  // storm into background noise.
  const auto t = static_cast<std::size_t>(tier);
  if (e.tier_failed(tier) || e.backoff_remaining[t] > 0) {
    if (!e.tier_failed(tier)) --e.backoff_remaining[t];
    return PrefetchResult::kNegativeCached;
  }
  if (!fetch_locked(lk, v, tier)) {
    ++stats_.fetch_errors;
    return PrefetchResult::kErrored;
  }
  count_fetch(stats_, e.group.payload_bytes, tier, e.group.fetch_ns,
              /*is_prefetch=*/true);
  if (fetched_bytes != nullptr) *fetched_bytes = e.group.payload_bytes;
  if (fetched_ns != nullptr) *fetched_ns = e.group.fetch_ns;
  evict_over_budget_locked();
  return PrefetchResult::kFetched;
}

bool ResidencyCache::group_failed(voxel::DenseVoxelId v) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return entries_[static_cast<std::size_t>(v)].failed_tiers != 0;
}

bool ResidencyCache::tier_failed(voxel::DenseVoxelId v, int tier) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return entries_[static_cast<std::size_t>(v)].tier_failed(tier);
}

std::optional<StreamError> ResidencyCache::group_error(
    voxel::DenseVoxelId v) const {
  std::lock_guard<std::mutex> lk(mutex_);
  const Entry& e = entries_[static_cast<std::size_t>(v)];
  if (e.last_error == nullptr) return std::nullopt;
  return *e.last_error;
}

bool ResidencyCache::resident(voxel::DenseVoxelId v) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return entries_[static_cast<std::size_t>(v)].resident;
}

int ResidencyCache::resident_tier(voxel::DenseVoxelId v) const {
  std::lock_guard<std::mutex> lk(mutex_);
  const Entry& e = entries_[static_cast<std::size_t>(v)];
  return e.resident ? e.tier : -1;
}

void ResidencyCache::ranking_snapshot(
    std::vector<std::uint8_t>* resident_tiers,
    std::vector<std::uint8_t>* failed_tiers) const {
  if (resident_tiers != nullptr) {
    resident_tiers->assign(entries_.size(), kTierAbsent);
  }
  if (failed_tiers != nullptr) failed_tiers->assign(entries_.size(), 0);
  std::lock_guard<std::mutex> lk(mutex_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (resident_tiers != nullptr && entries_[i].resident) {
      (*resident_tiers)[i] = static_cast<std::uint8_t>(entries_[i].tier);
    }
    if (failed_tiers != nullptr) {
      (*failed_tiers)[i] = entries_[i].failed_tiers;
    }
  }
}

std::uint64_t ResidencyCache::resident_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return resident_bytes_;
}

std::uint64_t ResidencyCache::budget_bytes() const {
  return budget_bytes_.load(std::memory_order_relaxed);
}

void ResidencyCache::set_budget_bytes(std::uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lk(mutex_);
  budget_bytes_.store(budget_bytes, std::memory_order_relaxed);
  // A shrink takes effect now, not at the next fetch: the governor's
  // invariant is that shards sum to the global budget the moment a
  // rebalance returns (pinned in-flight working sets excepted, as always).
  evict_over_budget_locked();
}

core::StreamCacheStats ResidencyCache::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

bool ResidencyCache::fetch_locked(std::unique_lock<std::mutex>& lk,
                                  voxel::DenseVoxelId v, int tier) {
  Entry& e = entries_[static_cast<std::size_t>(v)];
  e.loading = true;
  sync_evictable_locked(v);
  const bool upgrade = e.resident;
  if (upgrade) {
    // Replacing the payload invalidates its buffers; wait for outstanding
    // views to drain first. New acquires queue behind `loading`, and the
    // pipeline holds at most one group per worker while waiting on none,
    // so the drain cannot deadlock. Eviction skips loading entries.
    cv_.wait(lk, [&e] { return e.pins == 0; });
  }
  // RAII over the in-flight mark: `loading` is cleared and every waiter
  // woken on ANY exit from this function — early return, a throw from the
  // store read, an allocation failure in decode. Without this, one
  // throwing fetch would leave loading=true forever and every later
  // acquire of this group would sleep on cv_ for good (the deadlock the
  // failure-domain work exists to kill).
  struct LoadingGuard {
    ResidencyCache& cache;
    std::unique_lock<std::mutex>& lk;
    voxel::DenseVoxelId v;
    ~LoadingGuard() {
      if (!lk.owns_lock()) lk.lock();
      cache.entries_[static_cast<std::size_t>(v)].loading = false;
      try {
        cache.sync_evictable_locked(v);
      } catch (const std::bad_alloc&) {
        // The set insert failed and `evictable` still says so: v stays
        // out of the eviction order until its next pin change re-syncs it.
      }
      cache.cv_.notify_all();
    }
  } guard{*this, lk, v};

  lk.unlock();
  // Disk read + decode outside the lock: other groups stay acquirable and
  // other fetches run side by side (the local backend reads with pread,
  // unlocked). The typed read path never throws; errors come back as
  // values.
  StreamResult<DecodedGroup> fetched = [&] {
    SGS_TRACE_SPAN("cache", "fetch", "group", static_cast<std::uint64_t>(v),
                   "tier", static_cast<std::uint64_t>(tier));
    return store_->read_group_checked(v, tier);
  }();
  lk.lock();
  if (!fetched.ok()) {
    const auto t = static_cast<std::size_t>(tier);
    e.last_error =
        std::make_shared<const StreamError>(fetched.take_error());
    // Saturating: fail_count is a u8 and max_fetch_attempts an unvalidated
    // int — a wrap at 255 under a keep-retrying config would both dodge
    // the budget check and feed a negative shift (UB) below.
    if (e.fail_count[t] < 255) ++e.fail_count[t];
    const int budget = std::clamp(config_.max_fetch_attempts, 1, 255);
    if (e.fail_count[t] >= budget) {
      // Retry budget exhausted: negative-cache this (group, tier) for the
      // cache's lifetime. Total disk touches for a permanently-bad payload
      // are bounded by max_fetch_attempts, no matter how many sessions
      // keep asking for it; the group's OTHER tiers stay fetchable.
      if (e.failed_tiers == 0) ++stats_.failed_groups;
      e.failed_tiers |= static_cast<std::uint8_t>(1u << tier);
      e.backoff_remaining[t] = 0;
    } else {
      const int shift = std::min<int>(e.fail_count[t] - 1, 16);
      e.backoff_remaining[t] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              kRetryBackoffCap,
              std::uint64_t{config_.retry_backoff_base} << shift));
      SGS_TRACE_INSTANT("cache", "retry", "group",
                        static_cast<std::uint64_t>(v), "tier",
                        static_cast<std::uint64_t>(tier));
    }
    return false;  // guard clears loading + notifies waiters
  }
  // Success resets this tier's failure state: a transient error (repaired
  // file, recovered disk) does not haunt the tier forever.
  e.fail_count[static_cast<std::size_t>(tier)] = 0;
  e.backoff_remaining[static_cast<std::size_t>(tier)] = 0;
  if (upgrade) {
    resident_bytes_ -= e.group.resident_bytes();
  }
  e.group = fetched.take();
  e.tier = tier;
  if (!e.resident) {
    e.resident = true;
    e.touch = ++touch_clock_;  // joins evictable_ once the guard clears loading
  }
  resident_bytes_ += e.group.resident_bytes();
  // Deliberately no eviction pass here: a demand-missing acquire must pin
  // the new entry first, or — with every other resident group pinned — the
  // pass could evict the group it just fetched out from under the caller.
  // Callers run evict_over_budget_locked() once the entry is protected.
  return true;  // guard clears loading + notifies waiters
}

void ResidencyCache::sync_evictable_locked(voxel::DenseVoxelId v) {
  Entry& e = entries_[static_cast<std::size_t>(v)];
  const bool want =
      e.resident && e.pins == 0 && e.plan_pins == 0 && !e.loading;
  if (want == e.evictable) return;
  if (!want) {
    e.node = evictable_.extract({e.touch, v});
  } else if (e.node) {
    e.node.value() = {e.touch, v};
    evictable_.insert(std::move(e.node));
  } else {
    evictable_.emplace(e.touch, v);
  }
  e.evictable = want;
}

void ResidencyCache::evict_over_budget_locked() {
  const std::uint64_t budget = budget_bytes_.load(std::memory_order_relaxed);
  while (resident_bytes_ > budget && !evictable_.empty()) {
    const voxel::DenseVoxelId v = evictable_.begin()->second;
    Entry& e = entries_[static_cast<std::size_t>(v)];
    e.node = evictable_.extract(evictable_.begin());
    e.evictable = false;
    resident_bytes_ -= e.group.resident_bytes();
    e.group = DecodedGroup{};  // frees the decoded buffers
    e.resident = false;
    SGS_TRACE_INSTANT("cache", "evict", "group",
                      static_cast<std::uint64_t>(v));
    ++stats_.evictions;
  }
}

}  // namespace sgs::stream
