// SceneServer: N scenes behind per-scene residency shards, M viewer
// sessions multiplexed onto the persistent pool, admission-controlled.
//
// The paper's streaming design assumes a single viewer; a server room does
// not. A SceneServer hosts one or more AssetStore-backed scenes — each with
// its own thread-safe ResidencyCache shard, all shards governed by ONE
// global byte budget — and any number of sessions, each a SequenceRenderer
// driving its own camera path through its own stream::StreamingLoader over
// its scene's shard and the server's shared fetch queue — the same
// per-frame front-end a single viewer uses, constructed in its session
// form (own LodPolicy, scene index, session-attributed counters). Sessions
// of one scene share that scene's decoded
// voxel groups: a group fetched for one viewer serves every viewer of that
// scene, eviction respects the union of all in-flight working sets
// (refcounted plan pins), and all sessions' prefetch rankings merge into
// one deduplicated fetch queue keyed by (scene, group, tier).
//
// The load-bearing invariant: a session's rendered frames are bit-identical
// to rendering the same camera path alone *under the same LodPolicy, with
// adaptive tiers requested deterministically* (tier selection is a pure
// function of the session's camera and policy — never of shared cache
// state). Sharing the cache changes who pays which fetch and when — never
// a pixel — on single-tier stores or with lod.force_tier0; with adaptive
// tiers on a multi-tier store, a frame may be served a better-than-
// requested tier that happens to be resident, so the guarantee relaxes to
// the PSNR bound of the store's tiers (tests/test_serve.cpp pins the
// bit-exact cases down for raw and VQ stores).
//
// Threading model (the frame-granular state machine):
//   - Each session is a state machine over its frames:
//       ready -> rendering -> ready   (-> closed)
//     kReady: no frame in flight. kRendering: a driver holds the session
//     and is inside its renderer's render() — plan, tier selection, the
//     data-parallel frame on the pool, unpin. kClosed: close_session() was
//     called.
//   - run() does NOT spawn one thread per session. It multiplexes sessions
//     over a bounded driver set (config.max_concurrent_frames, 0 = auto:
//     min(paths, parallelism())). Ready sessions queue FIFO; a driver pops
//     one, renders exactly ONE frame, and re-queues it — so session count
//     is bounded by memory, not by core count, and no session can starve
//     another (the fairness contract; ServerReport::fairness_index
//     measures it, ServerReport::queue_wait_* prices it). One session is
//     never held by two drivers, so its frames stay sequential and the
//     bit-exactness invariant is untouched.
//   - render_frame() is safe to call concurrently for *distinct* sessions.
//     One session is sequential: its frames form one camera path.
//   - open_session()/try_open_session()/close_session() are thread-safe
//     against concurrent render_frame()/run(): registration takes the
//     session-table lock, the frame path resolves its session pointer
//     under the same lock, and Session storage is pointer-stable. Sessions
//     may join a running server.
//   - Admission: config.max_sessions caps OPEN sessions (0 = unlimited).
//     Over-cap or unknown-scene opens are rejected atomically — a typed
//     AdmissionResult from try_open_session(), an AdmissionRejectedError
//     from open_session(), never a partial registration — and counted in
//     ServerReport::admission_rejects.
//   - Shard rebalancing: every config.shard_rebalance_frames committed
//     frames, the governor re-splits the global cache budget across the
//     scene shards by demand (EWMA of each shard's access+prefetch delta),
//     with a per-shard floor share. Shrinks apply before grows, so the sum
//     of shard budgets never exceeds the global budget — not even
//     mid-rebalance — and coarse-floor arenas are exempt (they live under
//     their own per-shard budget).
//   - Per-session cache counters (SessionReport::cache) attribute every
//     hit, demand miss, and prefetched byte to the session that caused it;
//     a scene shard's global counters are the sum over that scene's
//     sessions plus evictions, and ServerReport::shared_cache is the sum
//     over shards.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "obs/metrics.hpp"
#include "stream/asset_store.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace sgs::serve {

// Frame-granular session state (see the threading model above). Stored in
// one atomic per session; transitions are made by the single driver that
// holds the session, so observers see a consistent (if instantaneous)
// snapshot.
enum class SessionState : std::uint8_t {
  kReady = 0,  // no frame in flight
  kRendering,  // a driver is rendering one frame of this session
  kClosed,     // close_session() was called; renders are rejected
};

// Why an open was refused. Admission is atomic: a rejected open leaves the
// server exactly as it was — no partial registration, ever.
enum class AdmissionRejectReason : std::uint8_t {
  kSessionCapReached = 0,  // open sessions == config.max_sessions
  kUnknownScene,           // scene index >= scene_count()
};
const char* admission_reject_reason_name(AdmissionRejectReason r);

// Typed admission outcome of try_open_session(). `session` is valid only
// when `admitted`.
struct AdmissionResult {
  int session = -1;
  bool admitted = false;
  AdmissionRejectReason reason = AdmissionRejectReason::kSessionCapReached;
};

// Thrown by the throwing open_session() overloads on a rejected admission.
class AdmissionRejectedError : public std::runtime_error {
 public:
  explicit AdmissionRejectedError(AdmissionRejectReason reason)
      : std::runtime_error(std::string("session admission rejected: ") +
                           admission_reject_reason_name(reason)),
        reason_(reason) {}
  AdmissionRejectReason reason() const { return reason_; }

 private:
  AdmissionRejectReason reason_;
};

struct SceneServerConfig {
  // GLOBAL cache budget — split across the per-scene shards by the
  // rebalancing governor (equal shares at construction); for a single
  // scene, simply that scene's budget. The shard floor arenas
  // (cache.coarse_floor_budget_bytes) are per-shard and exempt.
  stream::ResidencyCacheConfig cache;
  // Per-frame prefetch caps applied to each session's enqueue.
  stream::PrefetchConfig prefetch;
  // Sequence options every session renders with (plan reuse envelope,
  // binning margin, render options).
  core::SequenceOptions sequence;
  // Quality policy sessions open with unless open_session() is given their
  // own — each session streams its scene at its own fidelity. On a
  // single-tier (v1) store every policy degenerates to L0.
  stream::LodPolicy lod;
  // Admission cap on OPEN sessions (0 = unlimited). Opens past the cap are
  // rejected with AdmissionRejectReason::kSessionCapReached.
  std::size_t max_sessions = 0;
  // Frames in flight at once under run() — the driver count of the
  // multiplexed scheduler (0 = auto: min(session count, parallelism())).
  // Session count itself is NOT bounded by this; idle sessions wait in the
  // ready queue, not on a thread each.
  int max_concurrent_frames = 0;
  // Rebalance the shard budgets every this many committed frames
  // (multi-scene servers only; 0 disables rebalancing and keeps the
  // construction-time equal split).
  std::uint64_t shard_rebalance_frames = 16;
};

// Aggregated per-session outcome (latency in wall-clock milliseconds).
// Percentiles come from a fixed-bucket log-scale obs::LogHistogram over
// frame nanoseconds — O(1) memory per session regardless of frame count,
// each quantile overstating its sample by at most 12.5% (never under).
struct SessionReport {
  std::size_t frames = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  obs::LogHistogram latency;  // frame wall time in ns, all frames
  core::StreamCacheStats cache;  // session-attributed; evictions always 0.
                                 // Failure attribution rides here too:
                                 // cache.fetch_errors / degraded_groups /
                                 // failed_groups (distinct bad groups this
                                 // session touched) — a poisoned group
                                 // shows up ONLY in the sessions that
                                 // actually streamed it.
  // Scene this session streams and its state at report time.
  std::uint32_t scene = 0;
  SessionState state = SessionState::kReady;
  // Scheduler cost: time this session's frames sat in run()'s ready queue
  // before a driver picked them up (0 for frames driven directly through
  // render_frame()). Total and per-frame histogram.
  std::uint64_t queue_wait_ns = 0;
  obs::LogHistogram queue_wait;
  // Frames per second over the wall-clock span run() drove this session
  // (first enqueue to last commit; 0 when never driven by run()). The
  // per-session sample the fairness index is computed over.
  double throughput_fps = 0.0;
  std::size_t stall_frames = 0;  // frames with >= 1 demand miss
  // Frames with >= 1 group served from the shard's coarse floor because
  // its fetch missed the frame deadline. With a deadline and a floor in
  // force, stall_frames stays 0 and these frames carry the cost as bounded
  // quality loss instead of latency.
  std::size_t fallback_frames = 0;
  std::size_t plans_built = 0;
  std::size_t plans_reused = 0;
  // LOD: plan-group tier requests over all frames, and frames whose
  // selection was demoted below the footprint tier by the byte budget.
  std::array<std::uint64_t, core::kLodTierCount> tier_requests{};
  std::size_t degraded_frames = 0;
  // Frames that saw at least one fetch error or degraded (error-state)
  // serve. The session still completed every one of them — fault isolation
  // means a bad group costs pixels of one group, never the session.
  std::size_t error_frames = 0;
  // The session's link estimate at report time (0 = no transfer with a
  // non-zero duration completed yet — e.g. local disk, everything already
  // resident, or a perfect simulated link). ABR demotions it caused are in
  // cache.abr_demotions.
  double estimated_bandwidth_bps = 0.0;
};

struct ServerReport {
  std::vector<SessionReport> sessions;
  // Scenes hosted and, per scene, that shard's global cache counters and
  // its CURRENT budget share. scene_caches[k] (plus that scene's sessions'
  // abr_demotions) is the sum of scene-k sessions' counters plus
  // evictions; scene_budget_bytes sums exactly to the configured global
  // budget at every instant.
  std::size_t scenes = 1;
  std::vector<core::StreamCacheStats> scene_caches;
  std::vector<std::uint64_t> scene_budget_bytes;
  // The shard counters summed — the whole server's cache view (includes
  // evictions and every session's traffic).
  core::StreamCacheStats shared_cache;
  double global_hit_rate = 0.0;
  // Opens rejected by admission control (cap or unknown scene) over the
  // server's lifetime.
  std::uint64_t admission_rejects = 0;
  // Jain's fairness index over the per-session frame throughputs run()
  // measured: (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair, 1/n = one
  // session got everything. 1.0 when fewer than two sessions have been
  // driven by run().
  double fairness_index = 1.0;
  // Prefetch requests served by another session's in-flight fetch — the
  // cross-session merge win of the shared queue.
  std::uint64_t merged_prefetch_requests = 0;
  // Latency across all sessions' frames (merge of the per-session
  // histograms; bucket-wise addition, so merged percentiles are computed
  // over the exact union of samples).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  obs::LogHistogram latency;
  // Scheduler ready-queue wait across all sessions' frames (the fairness
  // cost in time units; all-zero when run() was never used).
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p95_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  obs::LogHistogram queue_wait;
  std::size_t stall_frames = 0;
  // Sum of the sessions' fallback_frames (coarse-floor deadline serves).
  std::size_t fallback_frames = 0;
  // Exceptions the async prefetch lane captured instead of terminating on
  // since this server was constructed (the lane's counter is process-wide;
  // the report scopes it to this server's lifetime — see
  // common/parallel.hpp). Non-zero means a background task itself threw —
  // distinct from fetch errors, which the cache absorbs before they ever
  // reach the lane.
  std::uint64_t async_lane_errors = 0;
};

struct ServerRunResult {
  // result.sessions[s][f] is session s's frame f — bit-identical to the
  // same path rendered alone.
  std::vector<std::vector<core::StreamingRenderResult>> sessions;
  ServerReport report;
};

class SceneServer {
 public:
  // Single-scene server (scene index 0). The store must outlive the
  // server; all parameters stream through the scene's shard under
  // config.cache.budget_bytes.
  explicit SceneServer(const stream::AssetStore& store,
                       SceneServerConfig config = {});
  // Multi-scene server: stores[k] becomes scene k with its own residency
  // shard; config.cache.budget_bytes is the GLOBAL budget the shards
  // share (equal split at construction, demand-rebalanced every
  // config.shard_rebalance_frames frames). Every store must outlive the
  // server. Throws std::invalid_argument on an empty or null-holding
  // store list.
  explicit SceneServer(const std::vector<const stream::AssetStore*>& stores,
                       SceneServerConfig config = {});
  ~SceneServer();

  // Opens a new viewer session on `scene` and returns its id (dense,
  // starting at 0; ids are never reused, so closed sessions keep their
  // slot in report()). Thread-safe, including against concurrent
  // render_frame()/run(). The no-policy overloads use config().lod.
  // Throws AdmissionRejectedError when admission refuses the open.
  int open_session();
  int open_session(const stream::LodPolicy& lod, std::uint32_t scene = 0);
  // Non-throwing admission path: the typed outcome of the same checks.
  // A reject is atomic (no partial registration) and counted in
  // admission_rejects().
  AdmissionResult try_open_session(std::uint32_t scene = 0);
  AdmissionResult try_open_session(const stream::LodPolicy& lod,
                                   std::uint32_t scene = 0);
  // Closes an open session: its slot (and counters) survive in report(),
  // its admission slot frees up, further render_frame() calls on it
  // throw. The caller must not close a session whose frame is in flight
  // (one session is sequential — closing is its last sequential act).
  // Throws std::out_of_range on an unknown id, std::invalid_argument when
  // already closed.
  void close_session(int session);
  // OPEN sessions (excludes closed ones). Total ever opened is
  // report().sessions.size().
  std::size_t session_count() const;
  // Opens rejected by admission control so far.
  std::uint64_t admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  std::size_t scene_count() const { return shards_.size(); }
  // Current state of one session's frame state machine.
  SessionState session_state(int session) const;

  // Renders the next frame of `session`'s camera path. Thread-safe across
  // distinct sessions; calls for one session must be sequential. Throws
  // std::invalid_argument on a closed session.
  core::StreamingRenderResult render_frame(int session,
                                           const gs::Camera& camera);

  // Multiplexed scheduler: drives path i through session i (opening
  // sessions on scene 0 as needed) until every path is rendered, using at
  // most config.max_concurrent_frames drivers (0 = auto), then drains the
  // fetch queue and returns all frames plus the report. Sessions rotate
  // through the drivers FIFO-fairly, one frame per turn; a session's
  // frames stay sequential, so every path's output is bit-identical to
  // rendering it alone. Multi-scene hosts open their sessions (with scene
  // assignments) before calling run().
  ServerRunResult run(const std::vector<std::vector<gs::Camera>>& paths);

  // Snapshot of per-session and global counters so far. Call only while no
  // frame is in flight (between frames or after run()).
  ServerReport report() const;

  // Blocks until all queued prefetch batches have landed.
  void wait_idle() const;

  // Requests still pending in the shared priority queue — 0 after a
  // wait_idle with no frames in flight (no session's work starves).
  std::size_t pending_prefetch_requests() const {
    return queue_.queue().pending();
  }

  // Scene-shard access (scene 0 = the single-scene legacy view).
  stream::ResidencyCache& cache(std::uint32_t scene = 0);
  const core::StreamingScene& scene() const;
  const core::StreamingScene& scene(std::uint32_t index) const;
  // Every shard's CURRENT byte share of the global budget (indexed by
  // scene), read as one snapshot under the governor's lock — so a
  // rebalance is never seen half-applied, and the shares sum exactly to
  // config().cache.budget_bytes at every instant (the invariant the stress
  // test samples mid-run).
  std::vector<std::uint64_t> shard_budgets() const;
  const SceneServerConfig& config() const { return config_; }

 private:
  struct SceneShard;
  struct Session;

  static std::vector<std::unique_ptr<SceneShard>> make_shards(
      const std::vector<const stream::AssetStore*>& stores,
      const SceneServerConfig& config);
  static std::vector<stream::ResidencyCache*> shard_caches(
      const std::vector<std::unique_ptr<SceneShard>>& shards);

  // One frame of `s`, with scheduler attribution: state transitions, the
  // session_frame span (queue-wait arg included), trace stamping, counter
  // folding, and the periodic shard rebalance at commit.
  core::StreamingRenderResult render_session_frame(
      Session& s, const gs::Camera& camera, std::uint64_t queue_wait_ns);
  void maybe_rebalance();
  void rebalance_shards();

  SceneServerConfig config_;
  std::vector<std::unique_ptr<SceneShard>> shards_;  // indexed by scene
  // Declared before sessions_: every session's loader schedules on this
  // queue (and its shard), so both must outlive the sessions — each
  // loader's destructor drains the lane its batches credit it from.
  stream::SharedPrefetchQueue queue_;
  // Guards the session table (open/close/lookup). Frame rendering itself
  // runs outside it: Session storage is pointer-stable (unique_ptr), so a
  // driver resolves its session under the lock and renders without it.
  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t open_sessions_ = 0;
  std::atomic<std::uint64_t> admission_rejects_{0};
  // Shard-budget governor state: frames committed (rebalance trigger),
  // last-rebalance access marks and the demand EWMA per shard.
  std::atomic<std::uint64_t> committed_frames_{0};
  mutable std::mutex rebalance_mutex_;
  std::vector<std::uint64_t> shard_last_accesses_;
  std::vector<double> shard_demand_ewma_;
  // Lane-error baseline at construction: report() attributes only errors
  // captured during this server's lifetime, not earlier async work's.
  std::uint64_t async_errors_at_open_ = 0;
};

}  // namespace sgs::serve
