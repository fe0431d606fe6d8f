#include "serve/scene_server.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace sgs::serve {

namespace {

// Histogram quantile (over frame nanoseconds) reported in milliseconds.
double percentile_ms(const obs::LogHistogram& h, double q) {
  return static_cast<double>(h.percentile(q)) * 1e-6;
}

}  // namespace

const char* admission_reject_reason_name(AdmissionRejectReason r) {
  switch (r) {
    case AdmissionRejectReason::kSessionCapReached:
      return "session cap reached";
    case AdmissionRejectReason::kUnknownScene:
      return "unknown scene";
  }
  return "unknown";
}

// ------------------------------------------------------------- SceneServer --

// One hosted scene: its decoded-parameter view of the store plus the
// residency shard every session of this scene streams through.
struct SceneServer::SceneShard {
  SceneShard(const stream::AssetStore& store,
             const stream::ResidencyCacheConfig& cfg)
      : scene(store.make_scene()), cache(store, cfg) {}

  core::StreamingScene scene;
  stream::ResidencyCache cache;
};

struct SceneServer::Session {
  Session(int id_, std::uint32_t scene_index, const core::StreamingScene& scene,
          const core::SequenceOptions& opt, stream::SharedPrefetchQueue& queue,
          const stream::LodPolicy& lod)
      : id(id_),
        loader(queue, lod, scene_index),
        renderer(scene, opt, &loader) {}

  int id = 0;
  // Frame state machine slot, flipped by the driver holding the session.
  std::atomic<SessionState> state{SessionState::kReady};
  stream::StreamingLoader loader;
  core::SequenceRenderer renderer;
  obs::LogHistogram frame_ns;    // frame wall time; O(1) memory per session
  obs::LogHistogram queue_wait;  // scheduler ready-queue wait per frame
  std::uint64_t queue_wait_ns = 0;
  // Wall-clock span and frame count run() drove this session over — the
  // per-session throughput sample the fairness index is computed from.
  std::uint64_t driven_ns = 0;
  std::uint64_t driven_frames = 0;
  std::size_t stall_frames = 0;
  std::size_t fallback_frames = 0;
  std::size_t error_frames = 0;
  // LOD report row: plan-group tier requests over all frames, and frames
  // whose selection the byte budget demoted below the footprint tier.
  std::array<std::uint64_t, core::kLodTierCount> tier_requests{};
  std::size_t degraded_frames = 0;
};

std::vector<std::unique_ptr<SceneServer::SceneShard>> SceneServer::make_shards(
    const std::vector<const stream::AssetStore*>& stores,
    const SceneServerConfig& config) {
  if (stores.empty()) {
    throw std::invalid_argument("SceneServer: no stores");
  }
  const std::uint64_t global = config.cache.budget_bytes;
  const std::uint64_t n = static_cast<std::uint64_t>(stores.size());
  const std::uint64_t base = global / n;
  std::vector<std::unique_ptr<SceneShard>> shards;
  shards.reserve(stores.size());
  for (std::size_t k = 0; k < stores.size(); ++k) {
    if (stores[k] == nullptr) {
      throw std::invalid_argument("SceneServer: null store");
    }
    stream::ResidencyCacheConfig cfg = config.cache;
    // Equal split, remainder on shard 0: the shares sum EXACTLY to the
    // global budget from the first instant.
    cfg.budget_bytes = base + (k == 0 ? global - base * n : 0);
    shards.push_back(std::make_unique<SceneShard>(*stores[k], cfg));
  }
  return shards;
}

std::vector<stream::ResidencyCache*> SceneServer::shard_caches(
    const std::vector<std::unique_ptr<SceneShard>>& shards) {
  std::vector<stream::ResidencyCache*> caches;
  caches.reserve(shards.size());
  for (const auto& s : shards) caches.push_back(&s->cache);
  return caches;
}

SceneServer::SceneServer(const stream::AssetStore& store,
                         SceneServerConfig config)
    : SceneServer(std::vector<const stream::AssetStore*>{&store},
                  std::move(config)) {}

SceneServer::SceneServer(const std::vector<const stream::AssetStore*>& stores,
                         SceneServerConfig config)
    : config_(std::move(config)),
      shards_(make_shards(stores, config_)),
      queue_(shard_caches(shards_), config_.prefetch),
      shard_last_accesses_(shards_.size(), 0),
      shard_demand_ewma_(shards_.size(), 0.0),
      async_errors_at_open_(async_task_errors()) {}

SceneServer::~SceneServer() { wait_idle(); }

int SceneServer::open_session() { return open_session(config_.lod); }

int SceneServer::open_session(const stream::LodPolicy& lod,
                              std::uint32_t scene) {
  const AdmissionResult res = try_open_session(lod, scene);
  if (!res.admitted) throw AdmissionRejectedError(res.reason);
  return res.session;
}

AdmissionResult SceneServer::try_open_session(std::uint32_t scene) {
  return try_open_session(config_.lod, scene);
}

AdmissionResult SceneServer::try_open_session(const stream::LodPolicy& lod,
                                              std::uint32_t scene) {
  AdmissionResult res;
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  // All checks precede any mutation: a reject leaves the table untouched.
  if (scene >= shards_.size()) {
    res.reason = AdmissionRejectReason::kUnknownScene;
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    return res;
  }
  if (config_.max_sessions > 0 && open_sessions_ >= config_.max_sessions) {
    res.reason = AdmissionRejectReason::kSessionCapReached;
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    return res;
  }
  SceneShard& shard = *shards_[scene];
  const int id = static_cast<int>(sessions_.size());
  sessions_.push_back(std::make_unique<Session>(id, scene, shard.scene,
                                                config_.sequence, queue_, lod));
  ++open_sessions_;
  res.session = id;
  res.admitted = true;
  return res;
}

void SceneServer::close_session(int session) {
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  if (session < 0 || static_cast<std::size_t>(session) >= sessions_.size()) {
    throw std::out_of_range("SceneServer: unknown session " +
                            std::to_string(session));
  }
  Session& s = *sessions_[static_cast<std::size_t>(session)];
  if (s.state.load(std::memory_order_relaxed) == SessionState::kClosed) {
    throw std::invalid_argument("SceneServer: session already closed");
  }
  s.state.store(SessionState::kClosed, std::memory_order_relaxed);
  --open_sessions_;
}

std::size_t SceneServer::session_count() const {
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  return open_sessions_;
}

SessionState SceneServer::session_state(int session) const {
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  return sessions_.at(static_cast<std::size_t>(session))
      ->state.load(std::memory_order_relaxed);
}

core::StreamingRenderResult SceneServer::render_frame(
    int session, const gs::Camera& camera) {
  Session* s = nullptr;
  {
    // Resolve under the table lock (opens may be concurrent), render
    // outside it (Session storage is pointer-stable).
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    s = sessions_.at(static_cast<std::size_t>(session)).get();
  }
  if (s->state.load(std::memory_order_relaxed) == SessionState::kClosed) {
    throw std::invalid_argument("SceneServer: render_frame on closed session");
  }
  return render_session_frame(*s, camera, 0);
}

core::StreamingRenderResult SceneServer::render_session_frame(
    Session& s, const gs::Camera& camera, std::uint64_t queue_wait_ns) {
  SGS_TRACE_SPAN("serve", "session_frame", "session",
                 static_cast<std::uint64_t>(s.id), "queue_wait_ns",
                 queue_wait_ns);
  s.state.store(SessionState::kRendering, std::memory_order_relaxed);
  core::StreamingRenderResult result = s.renderer.render(camera);
  s.state.store(SessionState::kReady, std::memory_order_relaxed);
  const stream::TierSelection& sel = s.loader.frame_selection();
  for (std::size_t t = 0; t < sel.histogram.size(); ++t) {
    s.tier_requests[t] += sel.histogram[t];
  }
  if (sel.demoted > 0) ++s.degraded_frames;
  // What the scheduler charged this frame on top of the render (SGST v9).
  result.trace.queue_wait_ns = queue_wait_ns;
  s.frame_ns.record(result.frame_wall_ns);
  s.queue_wait.record(queue_wait_ns);
  s.queue_wait_ns += queue_wait_ns;
  if (result.trace.cache.misses > 0) ++s.stall_frames;
  if (result.trace.cache.coarse_fallbacks > 0) ++s.fallback_frames;
  if (result.trace.cache.fetch_errors > 0 ||
      result.trace.cache.degraded_groups > 0) {
    ++s.error_frames;
  }
  maybe_rebalance();
  return result;
}

void SceneServer::maybe_rebalance() {
  const std::uint64_t committed =
      committed_frames_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (shards_.size() < 2 || config_.shard_rebalance_frames == 0) return;
  if (committed % config_.shard_rebalance_frames != 0) return;
  rebalance_shards();
}

void SceneServer::rebalance_shards() {
  std::lock_guard<std::mutex> lk(rebalance_mutex_);
  const std::uint64_t global = config_.cache.budget_bytes;
  const std::size_t n = shards_.size();
  // Demand per shard: traffic (accesses + prefetches) since the last
  // rebalance, EWMA-smoothed so one bursty frame doesn't thrash budgets.
  std::vector<double> demand(n, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const core::StreamCacheStats st = shards_[k]->cache.stats();
    const std::uint64_t mark = st.accesses() + st.prefetches;
    const std::uint64_t delta = mark - shard_last_accesses_[k];
    shard_last_accesses_[k] = mark;
    shard_demand_ewma_[k] =
        0.5 * shard_demand_ewma_[k] + 0.5 * static_cast<double>(delta);
    demand[k] = shard_demand_ewma_[k];
    total += demand[k];
  }
  // Every shard keeps a floor share of global/(4n) — a cold scene stays
  // warm enough to serve its next viewer — and the rest splits
  // demand-proportionally. Shares sum EXACTLY to the global budget (the
  // integer remainder rides on the hottest shard).
  const std::uint64_t floor_share = global / (4 * n);
  const std::uint64_t distributable = global - floor_share * n;
  std::vector<std::uint64_t> budget(n, floor_share);
  std::uint64_t assigned = floor_share * n;
  std::size_t hottest = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t extra =
        total > 0.0
            ? static_cast<std::uint64_t>(static_cast<double>(distributable) *
                                         demand[k] / total)
            : distributable / n;
    budget[k] += extra;
    assigned += extra;
    if (demand[k] > demand[hottest]) hottest = k;
  }
  budget[hottest] += global - assigned;
  // Shrinks before grows: the sum of shard budgets never exceeds the
  // global budget, not even between the two passes.
  for (std::size_t k = 0; k < n; ++k) {
    if (budget[k] <= shards_[k]->cache.budget_bytes()) {
      shards_[k]->cache.set_budget_bytes(budget[k]);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (budget[k] > shards_[k]->cache.budget_bytes()) {
      shards_[k]->cache.set_budget_bytes(budget[k]);
    }
  }
}

ServerRunResult SceneServer::run(
    const std::vector<std::vector<gs::Camera>>& paths) {
  while (session_count() < paths.size()) open_session();

  ServerRunResult out;
  out.sessions.resize(paths.size());
  std::vector<Session*> driven(paths.size(), nullptr);
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      Session* s = sessions_.at(i).get();
      if (s->state.load(std::memory_order_relaxed) == SessionState::kClosed) {
        throw std::invalid_argument("SceneServer: run on closed session " +
                                    std::to_string(i));
      }
      driven[i] = s;
      out.sessions[i].reserve(paths[i].size());
    }
  }

  // The multiplexed scheduler: a FIFO ready queue of session indices and a
  // bounded driver set. A driver checks one session out, renders exactly
  // one frame, checks it back in at the tail — FIFO rotation is the
  // fairness mechanism, the driver bound decouples session count from
  // thread (and core) count.
  std::mutex m;
  std::condition_variable cv;
  std::deque<int> ready;
  std::vector<std::size_t> next_frame(paths.size(), 0);
  std::vector<std::uint64_t> ready_since(paths.size(), 0);
  std::vector<std::uint64_t> last_commit(paths.size(), 0);
  std::size_t live = 0;
  const std::uint64_t t0 = core::stage_clock_ns();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].empty()) continue;
    ready.push_back(static_cast<int>(i));
    ready_since[i] = t0;
    ++live;
  }

  const int drivers = static_cast<int>(std::min<std::size_t>(
      paths.size(),
      static_cast<std::size_t>(config_.max_concurrent_frames > 0
                                   ? config_.max_concurrent_frames
                                   : std::max(1, parallelism()))));

  auto drive = [&](int d) {
    obs::set_thread_name("serve-driver-" + std::to_string(d));
    for (;;) {
      int si = -1;
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return !ready.empty() || live == 0; });
        if (ready.empty()) return;
        si = ready.front();
        ready.pop_front();
      }
      const std::size_t i = static_cast<std::size_t>(si);
      // next_frame/ready_since were last written under the lock we just
      // popped under; this driver is now the session's sole holder.
      const std::uint64_t qw = core::stage_clock_ns() - ready_since[i];
      out.sessions[i].push_back(
          render_session_frame(*driven[i], paths[i][next_frame[i]], qw));
      {
        std::lock_guard<std::mutex> lk(m);
        last_commit[i] = core::stage_clock_ns();
        if (++next_frame[i] < paths[i].size()) {
          ready_since[i] = last_commit[i];
          ready.push_back(si);
          cv.notify_one();
        } else if (--live == 0) {
          cv.notify_all();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(drivers > 0 ? drivers - 1 : 0));
  for (int d = 1; d < drivers; ++d) pool.emplace_back(drive, d);
  if (drivers > 0) drive(0);  // the calling thread is driver 0
  for (std::thread& t : pool) t.join();

  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].empty()) continue;
    driven[i]->driven_ns += last_commit[i] - t0;
    driven[i]->driven_frames += paths[i].size();
  }
  wait_idle();
  out.report = report();
  return out;
}

ServerReport SceneServer::report() const {
  ServerReport rep;
  {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    for (const auto& sp : sessions_) {
      const Session& s = *sp;
      SessionReport sr;
      sr.frames = static_cast<std::size_t>(s.frame_ns.count());
      sr.latency = s.frame_ns;
      sr.p50_ms = percentile_ms(sr.latency, 0.50);
      sr.p95_ms = percentile_ms(sr.latency, 0.95);
      sr.p99_ms = percentile_ms(sr.latency, 0.99);
      sr.cache = s.loader.stats();
      sr.scene = s.loader.scene();
      sr.state = s.state.load(std::memory_order_relaxed);
      sr.queue_wait_ns = s.queue_wait_ns;
      sr.queue_wait = s.queue_wait;
      sr.throughput_fps =
          s.driven_ns > 0 ? static_cast<double>(s.driven_frames) * 1e9 /
                                static_cast<double>(s.driven_ns)
                          : 0.0;
      sr.stall_frames = s.stall_frames;
      sr.fallback_frames = s.fallback_frames;
      sr.plans_built = s.renderer.stats().plans_built;
      sr.plans_reused = s.renderer.stats().plans_reused;
      sr.tier_requests = s.tier_requests;
      sr.degraded_frames = s.degraded_frames;
      sr.error_frames = s.error_frames;
      sr.estimated_bandwidth_bps =
          s.loader.estimator().bandwidth_bytes_per_sec();
      rep.stall_frames += sr.stall_frames;
      rep.fallback_frames += sr.fallback_frames;
      rep.latency.merge(sr.latency);
      rep.queue_wait.merge(sr.queue_wait);
      rep.sessions.push_back(std::move(sr));
    }
  }
  rep.scenes = shards_.size();
  for (const auto& shard : shards_) {
    rep.scene_caches.push_back(shard->cache.stats());
    rep.shared_cache.accumulate(rep.scene_caches.back());
  }
  rep.scene_budget_bytes = shard_budgets();
  // Demotion is a per-session front-end decision, so the shard counters
  // are 0: both the per-scene and global views get the sessions' sum.
  for (const SessionReport& sr : rep.sessions) {
    rep.scene_caches[sr.scene].abr_demotions += sr.cache.abr_demotions;
    rep.shared_cache.abr_demotions += sr.cache.abr_demotions;
  }
  rep.global_hit_rate = rep.shared_cache.hit_rate();
  rep.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  // Jain's index over the sessions run() actually drove: 1.0 = every
  // session got the same frame throughput, 1/n = one got everything.
  {
    double sum = 0.0, sum_sq = 0.0;
    std::size_t n = 0;
    for (const SessionReport& sr : rep.sessions) {
      if (sr.throughput_fps <= 0.0) continue;
      sum += sr.throughput_fps;
      sum_sq += sr.throughput_fps * sr.throughput_fps;
      ++n;
    }
    rep.fairness_index =
        n < 2 ? 1.0 : (sum * sum) / (static_cast<double>(n) * sum_sq);
  }
  rep.merged_prefetch_requests = queue_.queue().merged();
  // Scoped to this server's lifetime, but the lane (and its counter) is
  // process-global: two servers alive at once both see an error either
  // captured during their overlap — a diagnostics signal, not an exact
  // per-server attribution (fetch errors, which ARE attributed exactly,
  // never reach the lane).
  rep.async_lane_errors = async_task_errors() - async_errors_at_open_;
  rep.p50_ms = percentile_ms(rep.latency, 0.50);
  rep.p95_ms = percentile_ms(rep.latency, 0.95);
  rep.p99_ms = percentile_ms(rep.latency, 0.99);
  rep.queue_wait_p50_ms = percentile_ms(rep.queue_wait, 0.50);
  rep.queue_wait_p95_ms = percentile_ms(rep.queue_wait, 0.95);
  rep.queue_wait_p99_ms = percentile_ms(rep.queue_wait, 0.99);
  return rep;
}

void SceneServer::wait_idle() const { queue_.wait_idle(); }

stream::ResidencyCache& SceneServer::cache(std::uint32_t scene) {
  return shards_.at(scene)->cache;
}

const core::StreamingScene& SceneServer::scene() const { return scene(0); }

const core::StreamingScene& SceneServer::scene(std::uint32_t index) const {
  return shards_.at(index)->scene;
}

std::vector<std::uint64_t> SceneServer::shard_budgets() const {
  // Under the governor's lock: rebalance_shards() moves bytes between
  // shards in two passes (shrinks, then grows), so shares read one at a
  // time could straddle a rebalance and over-count the moved bytes.
  std::lock_guard<std::mutex> lk(rebalance_mutex_);
  std::vector<std::uint64_t> budgets;
  budgets.reserve(shards_.size());
  for (const auto& shard : shards_) {
    budgets.push_back(shard->cache.budget_bytes());
  }
  return budgets;
}

}  // namespace sgs::serve
