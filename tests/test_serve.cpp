// Tests for the multi-session scene server (src/serve/) and the shared
// residency-cache machinery under it (refcounted plan pins, per-session
// attribution, the merged prefetch queue) — the acceptance bar being that
// N sessions over ONE shared cache render images bit-identical to each
// session alone, for raw and VQ stores, while the shared cache actually
// takes concurrent traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "scene/generator.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"
#include "stream_fault_testutil.hpp"

namespace sgs::serve {
namespace {

gs::GaussianModel test_model(std::uint64_t seed, std::size_t count) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = count;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = seed;
  return scene::generate_scene(cfg);
}

core::StreamingScene test_scene(std::uint64_t seed, std::size_t count,
                                bool vq) {
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = vq;
  if (vq) {
    cfg.vq.scale_entries = 64;
    cfg.vq.rotation_entries = 64;
    cfg.vq.dc_entries = 64;
    cfg.vq.sh_entries = 32;
    cfg.vq.kmeans_iters = 4;
    cfg.vq.refine_iters = 1;
  }
  return core::StreamingScene::prepare(test_model(seed, count), cfg);
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& p) : path(p) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// Session s's camera path: a phase-shifted slice of one orbit, so the
// sessions' working sets overlap heavily — the serving sweet spot.
std::vector<gs::Camera> session_path(int session, int frames, int size) {
  std::vector<gs::Camera> cams;
  for (int f = 0; f < frames; ++f) {
    const float t = 0.02f * static_cast<float>(session) +
                    0.5f * static_cast<float>(f) / static_cast<float>(frames);
    const float a = 6.2831853f * t;
    cams.push_back(gs::Camera::look_at(
        {6.0f * std::sin(a), 1.0f, -6.0f * std::cos(a)}, {0, 0, 0}, {0, 1, 0},
        0.9f, size, size));
  }
  return cams;
}

// ------------------------------------------ golden: served == rendered alone

void golden_multi_session(bool vq) {
  const auto scene = test_scene(vq ? 31 : 30, 2500, vq);
  TempFile file(vq ? "/tmp/sgs_test_serve_vq.sgsc"
                   : "/tmp/sgs_test_serve_raw.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  const int n_sessions = 8;
  const int frames = vq ? 2 : 3;
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    paths.push_back(session_path(s, frames, 128));
  }

  SceneServerConfig cfg;
  // Budget well below the scene: the shared run must evict while plans
  // from several sessions are in flight.
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  const auto result = SceneServer(store, cfg).run(paths);

  ASSERT_EQ(result.sessions.size(), paths.size());
  for (int s = 0; s < n_sessions; ++s) {
    // The reference: this session's path rendered alone, fully resident.
    const auto alone =
        core::render_sequence(scene, paths[static_cast<std::size_t>(s)], {});
    const auto& served = result.sessions[static_cast<std::size_t>(s)];
    ASSERT_EQ(served.size(), alone.frames.size());
    for (std::size_t f = 0; f < served.size(); ++f) {
      // The acceptance bar: bit-identical image bytes...
      EXPECT_EQ(served[f].image.pixels(), alone.frames[f].image.pixels())
          << "session " << s << " frame " << f;
      // ...and identical streaming work (same voxels, same survivors).
      EXPECT_EQ(served[f].stats.fine_pass, alone.frames[f].stats.fine_pass);
      EXPECT_EQ(served[f].stats.blend_ops, alone.frames[f].stats.blend_ops);
      EXPECT_GT(served[f].frame_wall_ns, 0u);
    }
  }

  // The run really was shared and out of core.
  const ServerReport& rep = result.report;
  ASSERT_EQ(rep.sessions.size(), static_cast<std::size_t>(n_sessions));
  EXPECT_GT(rep.shared_cache.accesses(), 0u);
  EXPECT_GT(rep.shared_cache.evictions, 0u);
  EXPECT_GT(rep.shared_cache.bytes_fetched, 0u);
  EXPECT_GE(rep.global_hit_rate, 0.0);
  EXPECT_LE(rep.global_hit_rate, 1.0);
  EXPECT_LE(rep.p50_ms, rep.p95_ms);

  // Per-session attribution is exact: every hit, miss, prefetch, and
  // fetched byte lands in exactly one session's counters, so the sums
  // reproduce the shared cache's global view (evictions are global-only).
  core::StreamCacheStats sum;
  for (const SessionReport& sr : rep.sessions) {
    EXPECT_EQ(sr.frames, static_cast<std::size_t>(frames));
    EXPECT_EQ(sr.cache.evictions, 0u);
    EXPECT_LE(sr.p50_ms, sr.p95_ms);
    EXPECT_GE(sr.plans_built, 1u);
    sum.accumulate(sr.cache);
  }
  EXPECT_EQ(sum.hits, rep.shared_cache.hits);
  EXPECT_EQ(sum.misses, rep.shared_cache.misses);
  EXPECT_EQ(sum.prefetches, rep.shared_cache.prefetches);
  EXPECT_EQ(sum.bytes_fetched, rep.shared_cache.bytes_fetched);
}

TEST(ServeGolden, EightSessionsBitIdenticalRaw) {
  golden_multi_session(/*vq=*/false);
}

TEST(ServeGolden, EightSessionsBitIdenticalVq) {
  golden_multi_session(/*vq=*/true);
}

// --------------------------------- one front-end: standalone == one session

// A standalone StreamingLoader and a one-session SceneServer are the same
// per-frame front-end in two constructions. Over the same store and path
// with synchronous prefetch they must render identical pixels and record
// identical per-frame cache deltas — except evictions, which a standalone
// loader reports from its cache and a serve session never attributes. One
// render worker keeps the LRU order (and so every counter) reproducible,
// and a memory-backed store keeps transfer times at zero.
void expect_loader_matches_session(bool adaptive_floor) {
  const auto scene = test_scene(adaptive_floor ? 51 : 50, 2500, /*vq=*/false);
  TempFile file(adaptive_floor ? "/tmp/sgs_test_serve_eq_floor.sgsc"
                               : "/tmp/sgs_test_serve_eq_l0.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(
      file.path, scene,
      adaptive_floor ? stream::AssetStoreWriteOptions::with_coarse_floor()
                     : stream::AssetStoreWriteOptions{}));
  const auto opened =
      stream::AssetStore::open(stream::MemoryBackend::from_file(file.path));
  ASSERT_NE(opened, nullptr);
  const stream::AssetStore& store = *opened;
  const auto path = session_path(0, 4, 128);
  const int saved_parallelism = parallelism();
  set_parallelism(1);

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  cfg.prefetch.synchronous = true;
  if (adaptive_floor) {
    cfg.cache.coarse_floor_budget_bytes = store.decoded_bytes_total();
    cfg.prefetch.fetch_deadline_ns = 0;
    cfg.lod.footprint_full_px = 40.0f;  // sized to the 128 px test camera
    cfg.lod.footprint_half_px = 20.0f;
    cfg.lod.reserve_coarse_tier = true;
  } else {
    cfg.lod.force_tier0 = true;
  }
  cfg.prefetch.lod = cfg.lod;

  stream::ResidencyCache cache(store, cfg.cache);
  stream::StreamingLoader loader(cache, cfg.prefetch);
  const auto scene_ooc = store.make_scene();
  const auto alone = core::render_sequence(scene_ooc, path, {}, &loader);
  const auto served = SceneServer(store, cfg).run({path});
  set_parallelism(saved_parallelism);

  ASSERT_EQ(served.sessions.size(), 1u);
  ASSERT_EQ(served.sessions[0].size(), alone.frames.size());
  std::uint64_t fallbacks = 0;
  for (std::size_t f = 0; f < path.size(); ++f) {
    const auto& a = alone.frames[f];
    const auto& b = served.sessions[0][f];
    EXPECT_EQ(a.image.pixels(), b.image.pixels()) << "frame " << f;
    const core::StreamCacheStats& x = a.trace.cache;
    const core::StreamCacheStats& y = b.trace.cache;
    EXPECT_EQ(x.hits, y.hits) << "frame " << f;
    EXPECT_EQ(x.misses, y.misses) << "frame " << f;
    EXPECT_EQ(x.prefetches, y.prefetches) << "frame " << f;
    EXPECT_EQ(x.bytes_fetched, y.bytes_fetched) << "frame " << f;
    EXPECT_EQ(x.tier_hits, y.tier_hits) << "frame " << f;
    EXPECT_EQ(x.tier_misses, y.tier_misses) << "frame " << f;
    EXPECT_EQ(x.tier_prefetches, y.tier_prefetches) << "frame " << f;
    EXPECT_EQ(x.tier_bytes_fetched, y.tier_bytes_fetched) << "frame " << f;
    EXPECT_EQ(x.upgrades, y.upgrades) << "frame " << f;
    EXPECT_EQ(x.fetch_errors, y.fetch_errors) << "frame " << f;
    EXPECT_EQ(x.degraded_groups, y.degraded_groups) << "frame " << f;
    EXPECT_EQ(x.failed_groups, y.failed_groups) << "frame " << f;
    EXPECT_EQ(x.coarse_fallbacks, y.coarse_fallbacks) << "frame " << f;
    EXPECT_EQ(x.net_bytes, y.net_bytes) << "frame " << f;
    EXPECT_EQ(x.net_stall_ns, y.net_stall_ns) << "frame " << f;
    EXPECT_EQ(x.abr_demotions, y.abr_demotions) << "frame " << f;
    EXPECT_EQ(y.evictions, 0u) << "frame " << f;
    fallbacks += x.coarse_fallbacks;
  }
  // Each case exercised its path: the floor case really served the floor.
  if (adaptive_floor) {
    EXPECT_GT(fallbacks, 0u);
  }
}

TEST(OneFrontEnd, StandaloneLoaderMatchesOneSessionForcedL0) {
  expect_loader_matches_session(/*adaptive_floor=*/false);
}

TEST(OneFrontEnd, StandaloneLoaderMatchesOneSessionAdaptiveFloor) {
  expect_loader_matches_session(/*adaptive_floor=*/true);
}

// ------------------------------------------------- refcounted plan pinning

TEST(SharedCache, PlanPinsRefcountAcrossSessions) {
  const auto scene = test_scene(32, 1500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_refpin.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);
  ASSERT_GE(store.group_count(), 2);

  stream::ResidencyCacheConfig cfg;
  cfg.budget_bytes = 1;  // nothing unpinned survives
  stream::ResidencyCache cache(store, cfg);

  const std::vector<voxel::DenseVoxelId> shared_set = {0, 1};
  cache.pin_plan(shared_set);  // session A's plan
  cache.pin_plan(shared_set);  // session B pins the same groups
  cache.acquire_outcome(0);
  cache.release(0);
  cache.acquire_outcome(1);
  cache.release(1);

  // A's frame ends: B still holds the groups — eviction must respect the
  // union of in-flight working sets, so nothing may be dropped yet.
  cache.unpin_plan(shared_set);
  EXPECT_TRUE(cache.resident(0));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 0u);

  // B's frame ends: the last pins drop and the overshoot drains.
  cache.unpin_plan(shared_set);
  EXPECT_FALSE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// --------------------------------------------------- concurrent cache stress

// N threads hammer one cache with interleaved acquire/release, prefetch,
// and pin/unpin cycles. Asserts the counters stay exact under contention
// and that no group is ever decoded twice while it stays resident.
TEST(SharedCache, ConcurrentStressCountersConsistentNoDoubleDecode) {
  const auto scene = test_scene(33, 3000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_stress.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);
  const int n_groups = store.group_count();
  ASSERT_GE(n_groups, 8);

  // Phase 1: budget above the whole scene — nothing is ever evicted, so
  // each distinct group must be fetched exactly once no matter how many
  // threads race for it (the no-double-decode guarantee: concurrent
  // acquires of a loading group wait instead of fetching again).
  {
    stream::ResidencyCacheConfig cfg;
    cfg.budget_bytes = store.decoded_bytes_total() + 1;
    stream::ResidencyCache cache(store, cfg);

    const int n_threads = 8;
    const int ops = 400;
    std::atomic<std::uint64_t> acquires{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        std::uint64_t x = 9000 + static_cast<std::uint64_t>(t);
        for (int i = 0; i < ops; ++i) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
          const auto v = static_cast<voxel::DenseVoxelId>(
              (x >> 33) % static_cast<std::uint64_t>(n_groups));
          if (i % 5 == 4) {
            cache.prefetch_checked(v);
          } else {
            cache.acquire_outcome(v);
            cache.release(v);
            acquires.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    const auto s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, acquires.load());
    EXPECT_EQ(s.evictions, 0u);
    // All fetches (demand + prefetch) covered distinct groups exactly once.
    std::uint64_t resident_count = 0;
    std::uint64_t resident_total = 0;
    for (voxel::DenseVoxelId v = 0; v < n_groups; ++v) {
      if (cache.resident(v)) {
        ++resident_count;
        resident_total +=
            stream::faulttest::read_ok(store, v).resident_bytes();
      }
    }
    EXPECT_EQ(s.misses + s.prefetches, resident_count);
    EXPECT_EQ(cache.resident_bytes(), resident_total);
  }

  // Phase 2: a starving budget plus concurrent pin/unpin cycles — the
  // counters must stay exact, pins must never be evicted out from under a
  // frame, and after the last unpin the residency drains to the budget.
  {
    stream::ResidencyCacheConfig cfg;
    cfg.budget_bytes = store.decoded_bytes_total() / 5;
    stream::ResidencyCache cache(store, cfg);

    const int n_threads = 8;
    const int rounds = 60;
    std::atomic<std::uint64_t> acquires{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        std::uint64_t x = 77 + static_cast<std::uint64_t>(t);
        for (int r = 0; r < rounds; ++r) {
          // A tiny "frame": pin a working set, stream it, unpin.
          std::vector<voxel::DenseVoxelId> plan;
          for (int k = 0; k < 6; ++k) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            plan.push_back(static_cast<voxel::DenseVoxelId>(
                (x >> 33) % static_cast<std::uint64_t>(n_groups)));
          }
          cache.pin_plan(plan);
          for (const voxel::DenseVoxelId v : plan) {
            const stream::GroupView view = cache.acquire_outcome(v).view;
            EXPECT_EQ(view.size(), store.group_indices(v).size());
            cache.release(v);
            acquires.fetch_add(1, std::memory_order_relaxed);
          }
          cache.unpin_plan(plan);
        }
      });
    }
    for (auto& th : threads) th.join();

    const auto s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, acquires.load());
    EXPECT_GT(s.evictions, 0u);
    // All pins dropped: the drain has brought residency under budget.
    cache.unpin_plan({});
    EXPECT_LE(cache.resident_bytes(), cfg.budget_bytes);
  }
}

// ---------------------------------------------------------- per-session LOD

// Two sessions, one shared tiered store: one session insists on exact L0
// frames, the other streams adaptively under a tight per-frame byte budget.
// The exact session must stay bit-identical to rendering alone even while
// the adaptive one fetches (and the exact one upgrades) pruned tiers in
// the same cache; the reports must carry each session's quality story.
TEST(ServeLod, PerSessionQualityOverOneSharedCache) {
  const auto scene = test_scene(35, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_lod.sgsc");
  stream::AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene, wopts));
  stream::AssetStore store(file.path);
  ASSERT_EQ(store.tier_count(), 3);

  const int frames = 3;
  std::vector<std::vector<gs::Camera>> paths;
  paths.push_back(session_path(0, frames, 128));
  paths.push_back(session_path(1, frames, 128));

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  SceneServer server(store, cfg);
  stream::LodPolicy exact;
  exact.force_tier0 = true;
  ASSERT_EQ(server.open_session(exact), 0);
  stream::LodPolicy adaptive;  // sized to the 128 px test camera
  adaptive.footprint_full_px = 40.0f;
  adaptive.footprint_half_px = 20.0f;
  adaptive.frame_fetch_budget_bytes = 1;  // force budget demotion
  ASSERT_EQ(server.open_session(adaptive), 1);

  const auto result = server.run(paths);

  // The L0 session's frames are exact regardless of its neighbor's tiers.
  const auto alone = core::render_sequence(scene, paths[0], {});
  ASSERT_EQ(result.sessions[0].size(), alone.frames.size());
  for (std::size_t f = 0; f < alone.frames.size(); ++f) {
    EXPECT_EQ(result.sessions[0][f].image.pixels(),
              alone.frames[f].image.pixels())
        << "frame " << f;
  }

  const SessionReport& r0 = result.report.sessions[0];
  const SessionReport& r1 = result.report.sessions[1];
  // Session 0 requested nothing below L0 and was never degraded.
  EXPECT_GT(r0.tier_requests[0], 0u);
  EXPECT_EQ(r0.tier_requests[1] + r0.tier_requests[2], 0u);
  EXPECT_EQ(r0.degraded_frames, 0u);
  // Session 1 streamed pruned tiers, and its 1-byte budget demoted every
  // frame's tail below the footprint-ideal tier.
  EXPECT_GT(r1.tier_requests[1] + r1.tier_requests[2], 0u);
  EXPECT_EQ(r1.degraded_frames, static_cast<std::size_t>(frames));

  // Shared counters stay coherent under tiering: the tier breakdowns
  // partition the totals and upgrades are a subset of misses.
  const core::StreamCacheStats& g = result.report.shared_cache;
  std::uint64_t tier_hits = 0, tier_misses = 0, tier_bytes = 0;
  for (int t = 0; t < core::kLodTierCount; ++t) {
    tier_hits += g.tier_hits[t];
    tier_misses += g.tier_misses[t];
    tier_bytes += g.tier_bytes_fetched[t];
  }
  EXPECT_EQ(tier_hits, g.hits);
  EXPECT_EQ(tier_misses, g.misses);
  EXPECT_EQ(tier_bytes, g.bytes_fetched);
  EXPECT_LE(g.upgrades, g.misses);
}

// ------------------------------------------------------ merged fetch queue

TEST(SharedQueue, MergesDuplicateRequestsAcrossSessions) {
  const auto scene = test_scene(34, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_merge.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);
  stream::ResidencyCache cache(store, {});

  stream::PrefetchConfig pcfg;
  pcfg.max_groups_per_frame = 8;
  stream::SharedPrefetchQueue queue(cache, pcfg);

  const gs::Camera cam = gs::Camera::look_at({0, 0, -6}, {0, 0, 0}, {0, 1, 0},
                                             0.9f, 128, 128);
  stream::FrameIntent intent;
  intent.camera = &cam;

  // Stall the async lane so both sessions' requests are pending at once.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  async_submit([open] { open.wait(); });

  stream::SessionCacheStats sink_a, sink_b;
  const std::size_t queued_a = queue.enqueue(intent, &sink_a);
  ASSERT_GT(queued_a, 0u);
  // Session B wants the same groups for the same view: every request is
  // already queued by A — merged, nothing new.
  const std::size_t queued_b = queue.enqueue(intent, &sink_b);
  EXPECT_EQ(queued_b, 0u);
  EXPECT_GE(queue.queue().merged(), queued_a);

  gate.set_value();
  queue.wait_idle();

  // Each group was fetched exactly once, attributed to the initiator.
  const auto s = cache.stats();
  EXPECT_EQ(s.prefetches, queued_a);
  EXPECT_EQ(sink_a.snapshot().prefetches, queued_a);
  EXPECT_EQ(sink_b.snapshot().prefetches, 0u);
}

// --------------------------------------------------------- failure domain

// The acceptance bar of fault isolation at the serving layer: an 8-session
// run over a store with ONE poisoned voxel group completes every frame of
// every session, survives without terminate or deadlock, and attributes the
// failure to exactly the sessions that streamed the bad group.
TEST(SceneServer, EightSessionsSurviveOnePoisonedGroup) {
  const auto scene = test_scene(35, 2500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_serve_poison.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  // The densest (central) group — the one every orbiting session streams.
  {
    stream::AssetStore probe(file.path);
    stream::faulttest::poison_vq_group(file.path, probe,
                                       stream::faulttest::densest_group(probe));
  }
  stream::AssetStore store(file.path);

  const int n_sessions = 8;
  const int frames = 2;
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    paths.push_back(session_path(s, frames, 128));
  }

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  // One strike: the first failed fetch negative-caches the group, so the
  // attribution below is exact (1 attempt, 1 failed group) regardless of
  // how the 8 session threads interleave.
  cfg.cache.max_fetch_attempts = 1;
  const auto result = SceneServer(store, cfg).run(paths);

  // Every session completed every frame — the poisoned group cost pixels,
  // never a session.
  ASSERT_EQ(result.sessions.size(), paths.size());
  for (int s = 0; s < n_sessions; ++s) {
    EXPECT_EQ(result.sessions[static_cast<std::size_t>(s)].size(),
              static_cast<std::size_t>(frames))
        << "session " << s;
  }

  const ServerReport& rep = result.report;
  // Exactly one disk attempt, one permanently-failed group, and at least
  // one degraded serve, all visible in the shared cache's v5 counters.
  EXPECT_EQ(rep.shared_cache.fetch_errors, 1u);
  EXPECT_EQ(rep.shared_cache.failed_groups, 1u);
  EXPECT_GT(rep.shared_cache.degraded_groups, 0u);
  // No async-lane task died either: the cache absorbs fetch errors before
  // they can escape a prefetch batch (nothing in this binary throws tasks).
  EXPECT_EQ(rep.async_lane_errors, 0u);

  // Attribution: the one fetch error lands in exactly one session's
  // counters; failed-group sightings land only in sessions that actually
  // streamed the bad group, and at least one did.
  std::uint64_t error_sum = 0;
  std::uint64_t degraded_sum = 0;
  std::uint64_t failed_sessions = 0;
  std::size_t error_frames = 0;
  for (const SessionReport& sr : rep.sessions) {
    EXPECT_EQ(sr.frames, static_cast<std::size_t>(frames));
    error_sum += sr.cache.fetch_errors;
    degraded_sum += sr.cache.degraded_groups;
    EXPECT_LE(sr.cache.failed_groups, 1u);  // there is only one bad group
    if (sr.cache.failed_groups > 0) ++failed_sessions;
    error_frames += sr.error_frames;
  }
  EXPECT_EQ(error_sum, rep.shared_cache.fetch_errors);
  EXPECT_EQ(degraded_sum, rep.shared_cache.degraded_groups);
  EXPECT_GE(failed_sessions, 1u);
  EXPECT_GT(error_frames, 0u);
}

// ----------------------------------------------- zero-stall serving --------
//
// Eight sessions over a coarse-floored store with a zero per-frame fetch
// deadline: no session ever blocks on a demand fetch (stall_frames == 0
// everywhere), the shared priority queue drains every session's requests
// (no starvation), and per-session fallback attribution sums exactly to
// the shared cache's global counter.
TEST(SceneServer, EightSessionsZeroDeadlineNeverStallNorStarve) {
  const auto scene = test_scene(36, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_zerostall.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(
      file.path, scene, stream::AssetStoreWriteOptions::with_coarse_floor()));
  stream::AssetStore store(file.path);
  ASSERT_TRUE(store.has_coarse_tier());

  const int n_sessions = 8;
  const int frames = 3;
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    paths.push_back(session_path(s, frames, 128));
  }

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  cfg.cache.coarse_floor_budget_bytes = store.decoded_bytes_total();
  cfg.prefetch.fetch_deadline_ns = 0;  // every demand fetch is past due
  // Squeeze the shared per-enqueue byte cap so warm-up cannot finish
  // inside one frame: the floor must actually carry load.
  cfg.prefetch.max_bytes_per_frame = store.payload_bytes_total() / 16;
  cfg.lod.force_tier0 = true;

  SceneServer server(store, cfg);
  ASSERT_TRUE(server.cache().coarse_floor_enabled());
  const auto result = server.run(paths);

  const ServerReport& rep = result.report;
  ASSERT_EQ(rep.sessions.size(), static_cast<std::size_t>(n_sessions));
  // Zero-stall, per session: not one frame with a demand miss anywhere.
  std::uint64_t fallback_sum = 0;
  std::size_t fallback_frames_sum = 0;
  for (const SessionReport& sr : rep.sessions) {
    EXPECT_EQ(sr.frames, static_cast<std::size_t>(frames));
    EXPECT_EQ(sr.stall_frames, 0u);
    EXPECT_EQ(sr.cache.misses, 0u);
    fallback_sum += sr.cache.coarse_fallbacks;
    fallback_frames_sum += sr.fallback_frames;
  }
  EXPECT_EQ(rep.stall_frames, 0u);
  // The floor actually carried load, and attribution is exact: per-session
  // fallback counters sum to the shared cache's global one (each fallback
  // is credited to both scopes from the same per-frame dedup site).
  EXPECT_GT(fallback_sum, 0u);
  EXPECT_EQ(fallback_sum, rep.shared_cache.coarse_fallbacks);
  EXPECT_GT(fallback_frames_sum, 0u);
  EXPECT_EQ(rep.fallback_frames, fallback_frames_sum);
  // Non-fallback traffic attribution still holds (pre-PR invariant).
  core::StreamCacheStats sum;
  for (const SessionReport& sr : rep.sessions) sum.accumulate(sr.cache);
  EXPECT_EQ(sum.hits, rep.shared_cache.hits);
  EXPECT_EQ(sum.misses, rep.shared_cache.misses);
  EXPECT_EQ(sum.prefetches, rep.shared_cache.prefetches);
  EXPECT_EQ(sum.bytes_fetched, rep.shared_cache.bytes_fetched);

  // No starvation: after run()'s wait_idle, the shared priority queue is
  // empty — every session's requests (ranked and urgent re-queues alike)
  // were drained within the run's bounded drain batches.
  EXPECT_EQ(server.pending_prefetch_requests(), 0u);

  // Quality floor: frames that never fell back are bit-identical to the
  // session rendered alone; fallback frames still render the full scene.
  for (int s = 0; s < n_sessions; ++s) {
    const auto alone =
        core::render_sequence(scene, paths[static_cast<std::size_t>(s)], {});
    const auto& served = result.sessions[static_cast<std::size_t>(s)];
    ASSERT_EQ(served.size(), alone.frames.size());
    for (std::size_t f = 0; f < served.size(); ++f) {
      if (served[f].trace.cache.coarse_fallbacks == 0) {
        EXPECT_EQ(served[f].image.pixels(), alone.frames[f].image.pixels())
            << "session " << s << " frame " << f;
      }
    }
  }
}

// --------------------------------------------- multiplexed state machine ---

// The tentpole contract: session count is bounded by memory, not cores.
// Twelve sessions over TWO drivers (max_concurrent_frames = 2) complete
// bit-identically to rendering alone, the ready-queue wait is measured on
// every driven frame, and the FIFO rotation yields a fair throughput split.
TEST(ServeMultiplexed, SessionsExceedDriverCountBitIdentical) {
  const auto scene = test_scene(40, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_mux.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  const int n_sessions = 12;
  const int frames = 2;
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    paths.push_back(session_path(s, frames, 96));
  }

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  cfg.max_concurrent_frames = 2;  // 12 sessions share 2 drivers
  SceneServer server(store, cfg);
  const auto result = server.run(paths);

  ASSERT_EQ(result.sessions.size(), paths.size());
  for (int s = 0; s < n_sessions; ++s) {
    const auto alone =
        core::render_sequence(scene, paths[static_cast<std::size_t>(s)], {});
    const auto& served = result.sessions[static_cast<std::size_t>(s)];
    ASSERT_EQ(served.size(), alone.frames.size());
    for (std::size_t f = 0; f < served.size(); ++f) {
      EXPECT_EQ(served[f].image.pixels(), alone.frames[f].image.pixels())
          << "session " << s << " frame " << f;
    }
  }

  const ServerReport& rep = result.report;
  // Every driven frame recorded a queue wait; with 12 sessions behind 2
  // drivers most of the fleet waits, so the total wait cannot be zero.
  EXPECT_EQ(rep.queue_wait.count(),
            static_cast<std::uint64_t>(n_sessions * frames));
  EXPECT_GT(rep.queue_wait.sum(), 0u);
  EXPECT_LE(rep.queue_wait_p50_ms, rep.queue_wait_p99_ms);
  // Throughput was measured for every session and split fairly: FIFO
  // rotation admits no starvation, so Jain's index stays high.
  for (const SessionReport& sr : rep.sessions) {
    EXPECT_GT(sr.throughput_fps, 0.0);
    EXPECT_EQ(sr.state, SessionState::kReady);
    EXPECT_EQ(sr.queue_wait.count(), static_cast<std::uint64_t>(frames));
  }
  EXPECT_GT(rep.fairness_index, 0.9);
  EXPECT_LE(rep.fairness_index, 1.0 + 1e-9);
}

// ----------------------------------------------------- multi-scene hosting --

// Two DIFFERENT scenes behind one server: every session stays bit-identical
// to rendering its own scene alone, per-scene counter attribution is exact,
// and the shard budgets always sum to the configured global budget.
TEST(ServeGolden, TwoSceneHostBitIdentical) {
  const auto scene_a = test_scene(41, 2200, /*vq=*/false);
  const auto scene_b = test_scene(42, 1600, /*vq=*/false);
  TempFile file_a("/tmp/sgs_test_serve_2s_a.sgsc");
  TempFile file_b("/tmp/sgs_test_serve_2s_b.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file_a.path, scene_a));
  ASSERT_TRUE(stream::AssetStore::write(file_b.path, scene_b));
  stream::AssetStore store_a(file_a.path);
  stream::AssetStore store_b(file_b.path);

  const int n_sessions = 6;
  const int frames = 2;
  SceneServerConfig cfg;
  cfg.cache.budget_bytes =
      (store_a.decoded_bytes_total() + store_b.decoded_bytes_total()) * 35 /
      100;
  cfg.shard_rebalance_frames = 4;
  SceneServer server({&store_a, &store_b}, cfg);
  ASSERT_EQ(server.scene_count(), 2u);
  // Construction splits the global budget exactly (remainder on shard 0).
  const std::vector<std::uint64_t> split = server.shard_budgets();
  EXPECT_EQ(split[0] + split[1], cfg.cache.budget_bytes);

  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    const auto scene_idx = static_cast<std::uint32_t>(s % 2);
    ASSERT_EQ(server.open_session(cfg.lod, scene_idx), s);
    paths.push_back(session_path(s, frames, 96));
  }
  const auto result = server.run(paths);

  ASSERT_EQ(result.sessions.size(), paths.size());
  for (int s = 0; s < n_sessions; ++s) {
    const auto& own_scene = (s % 2 == 0) ? scene_a : scene_b;
    const auto alone = core::render_sequence(
        own_scene, paths[static_cast<std::size_t>(s)], {});
    const auto& served = result.sessions[static_cast<std::size_t>(s)];
    ASSERT_EQ(served.size(), alone.frames.size());
    for (std::size_t f = 0; f < served.size(); ++f) {
      EXPECT_EQ(served[f].image.pixels(), alone.frames[f].image.pixels())
          << "session " << s << " frame " << f;
    }
  }

  const ServerReport& rep = result.report;
  ASSERT_EQ(rep.scenes, 2u);
  ASSERT_EQ(rep.scene_caches.size(), 2u);
  ASSERT_EQ(rep.scene_budget_bytes.size(), 2u);
  EXPECT_EQ(rep.scene_budget_bytes[0] + rep.scene_budget_bytes[1],
            cfg.cache.budget_bytes);
  // Per-SCENE attribution: scene k's shard counters are the sum of scene
  // k's sessions' counters (evictions are shard-global), and the global
  // view is the sum of the shards.
  for (std::uint32_t k = 0; k < 2; ++k) {
    core::StreamCacheStats sum;
    for (const SessionReport& sr : rep.sessions) {
      if (sr.scene == k) sum.accumulate(sr.cache);
    }
    EXPECT_EQ(sum.hits, rep.scene_caches[k].hits) << "scene " << k;
    EXPECT_EQ(sum.misses, rep.scene_caches[k].misses) << "scene " << k;
    EXPECT_EQ(sum.prefetches, rep.scene_caches[k].prefetches) << "scene " << k;
    EXPECT_EQ(sum.bytes_fetched, rep.scene_caches[k].bytes_fetched)
        << "scene " << k;
  }
  core::StreamCacheStats sum;
  for (const SessionReport& sr : rep.sessions) sum.accumulate(sr.cache);
  EXPECT_EQ(sum.hits, rep.shared_cache.hits);
  EXPECT_EQ(sum.misses, rep.shared_cache.misses);
  EXPECT_EQ(sum.prefetches, rep.shared_cache.prefetches);
  EXPECT_EQ(sum.bytes_fetched, rep.shared_cache.bytes_fetched);
}

// --------------------------------------------------------------- admission --

TEST(Admission, CapTypedRejectNoPartialRegistration) {
  const auto scene = test_scene(43, 1200, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_admit.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  SceneServerConfig cfg;
  cfg.max_sessions = 2;
  SceneServer server(store, cfg);

  ASSERT_EQ(server.open_session(), 0);
  ASSERT_EQ(server.open_session(), 1);
  EXPECT_EQ(server.session_count(), 2u);

  // Over the cap: a typed reject, atomically — no partial registration.
  const AdmissionResult over = server.try_open_session();
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, AdmissionRejectReason::kSessionCapReached);
  EXPECT_EQ(server.session_count(), 2u);
  EXPECT_EQ(server.report().sessions.size(), 2u);
  EXPECT_EQ(server.admission_rejects(), 1u);

  // The throwing overload surfaces the same reason.
  try {
    server.open_session();
    FAIL() << "open_session past the cap must throw";
  } catch (const AdmissionRejectedError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kSessionCapReached);
  }
  EXPECT_EQ(server.admission_rejects(), 2u);

  // Unknown scene is the other typed reject.
  const AdmissionResult bad_scene = server.try_open_session(/*scene=*/7);
  EXPECT_FALSE(bad_scene.admitted);
  EXPECT_EQ(bad_scene.reason, AdmissionRejectReason::kUnknownScene);
  EXPECT_EQ(server.admission_rejects(), 3u);

  // A rejected open left the admitted sessions fully functional.
  const auto cams = session_path(0, 1, 96);
  EXPECT_GT(server.render_frame(0, cams[0]).frame_wall_ns, 0u);

  // close frees the admission slot; the closed id is dead, never reused.
  server.close_session(0);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.session_state(0), SessionState::kClosed);
  EXPECT_THROW(server.render_frame(0, cams[0]), std::invalid_argument);
  EXPECT_THROW(server.close_session(0), std::invalid_argument);
  EXPECT_THROW(server.close_session(99), std::out_of_range);
  const AdmissionResult reopened = server.try_open_session();
  ASSERT_TRUE(reopened.admitted);
  EXPECT_EQ(reopened.session, 2);
  EXPECT_EQ(server.session_count(), 2u);
  // Closed sessions keep their report slot (counters survive).
  EXPECT_EQ(server.report().sessions.size(), 3u);
}

// Eight threads hammer open/close against a small cap: every admit and
// every reject is counted exactly once, and the final table is coherent.
TEST(Admission, OpenCloseHammerExactCounters) {
  const auto scene = test_scene(44, 1200, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_hammer.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  SceneServerConfig cfg;
  cfg.max_sessions = 4;
  SceneServer server(store, cfg);

  const int n_threads = 8;
  const int iters = 50;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> closed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        const AdmissionResult res = server.try_open_session();
        if (!res.admitted) {
          EXPECT_EQ(res.reason, AdmissionRejectReason::kSessionCapReached);
          rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
        // Release the slot so other threads keep admitting: each thread
        // closes only ids it opened, so no double close can happen.
        server.close_session(res.session);
        closed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(admitted.load(), closed.load());
  EXPECT_EQ(server.session_count(), 0u);
  // Exactness: every attempt is exactly one admit or one reject, ids were
  // never reused, and the reject counter matches the local tally.
  EXPECT_EQ(admitted.load() + rejected.load(),
            static_cast<std::uint64_t>(n_threads * iters));
  EXPECT_EQ(server.admission_rejects(), rejected.load());
  EXPECT_EQ(server.report().sessions.size(),
            static_cast<std::size_t>(admitted.load()));
  EXPECT_EQ(server.report().admission_rejects, rejected.load());
}

// ------------------------------------------- open during run (the old race) --

// Registration while the server is mid-run used to be documented as unsafe;
// it is now part of the contract. Sessions join (and render) while run()
// drives the original fleet — under TSan in CI this doubles as the data-race
// proof for the session-table lock.
TEST(SceneServer, OpenSessionDuringRunIsSafe) {
  const auto scene = test_scene(45, 1600, /*vq=*/false);
  TempFile file("/tmp/sgs_test_serve_openrun.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  SceneServer server(store, cfg);

  const int n_driven = 4;
  const int frames = 3;
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_driven; ++s) {
    ASSERT_EQ(server.open_session(), s);  // pre-open run()'s fleet
    paths.push_back(session_path(s, frames, 96));
  }

  std::thread runner([&] { (void)server.run(paths); });
  // While the fleet renders: join late, render on the new session, and
  // bounce admissions — all against the live session table.
  std::vector<int> joined;
  for (int i = 0; i < 6; ++i) {
    const AdmissionResult res = server.try_open_session();
    ASSERT_TRUE(res.admitted);
    joined.push_back(res.session);
    const auto cams = session_path(10 + i, 1, 96);
    EXPECT_GT(server.render_frame(res.session, cams[0]).frame_wall_ns, 0u);
  }
  for (std::size_t i = 0; i + 1 < joined.size(); i += 2) {
    server.close_session(joined[i]);
  }
  runner.join();

  const ServerReport rep = server.report();
  EXPECT_EQ(rep.sessions.size(), static_cast<std::size_t>(n_driven) + 6u);
  for (int s = 0; s < n_driven; ++s) {
    EXPECT_EQ(rep.sessions[static_cast<std::size_t>(s)].frames,
              static_cast<std::size_t>(frames));
  }
  // Attribution stayed exact across the concurrent joins.
  core::StreamCacheStats sum;
  for (const SessionReport& sr : rep.sessions) sum.accumulate(sr.cache);
  EXPECT_EQ(sum.hits, rep.shared_cache.hits);
  EXPECT_EQ(sum.misses, rep.shared_cache.misses);
  EXPECT_EQ(sum.prefetches, rep.shared_cache.prefetches);
  EXPECT_EQ(sum.bytes_fetched, rep.shared_cache.bytes_fetched);
}

// ------------------------------------------------- shard budget governor ----

// Asymmetric demand across two scenes under a starving global budget: a
// sampler thread asserts the governor's conservation law — the shard
// budgets sum EXACTLY to the global budget at every instant (shrink-
// before-grow) and never drop below the floor share — while rebalances
// and evictions run. Afterwards the hot scene must hold at least as much
// budget as the cold one, and the drained residency fits the global
// budget.
TEST(ShardBudget, ConservedUnderConcurrentRebalance) {
  const auto scene_a = test_scene(46, 2200, /*vq=*/false);
  const auto scene_b = test_scene(47, 1400, /*vq=*/false);
  TempFile file_a("/tmp/sgs_test_serve_gov_a.sgsc");
  TempFile file_b("/tmp/sgs_test_serve_gov_b.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file_a.path, scene_a));
  ASSERT_TRUE(stream::AssetStore::write(file_b.path, scene_b));
  stream::AssetStore store_a(file_a.path);
  stream::AssetStore store_b(file_b.path);

  SceneServerConfig cfg;
  const std::uint64_t global =
      (store_a.decoded_bytes_total() + store_b.decoded_bytes_total()) * 30 /
      100;
  cfg.cache.budget_bytes = global;
  cfg.shard_rebalance_frames = 2;  // rebalance aggressively
  SceneServer server({&store_a, &store_b}, cfg);

  // Demand skew: five sessions orbit scene 0, one touches scene 1 briefly.
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < 5; ++s) {
    ASSERT_EQ(server.open_session(cfg.lod, 0), s);
    paths.push_back(session_path(s, 4, 96));
  }
  ASSERT_EQ(server.open_session(cfg.lod, 1), 5);
  paths.push_back(session_path(5, 1, 96));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> samples{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // One snapshot under the governor's lock: reading the shards one at
      // a time could straddle a rebalance and double-count moved bytes.
      const std::vector<std::uint64_t> budgets = server.shard_budgets();
      const std::uint64_t b0 = budgets[0];
      const std::uint64_t b1 = budgets[1];
      // Conservation: the shares sampled mid-run must never EXCEED the
      // global budget.
      EXPECT_LE(b0 + b1, global);
      EXPECT_GE(b0, global / 8);  // floor share: global / (4 * n_shards)
      EXPECT_GE(b1, global / 8);
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto result = server.run(paths);
  stop.store(true);
  sampler.join();

  EXPECT_GT(samples.load(), 0u);
  // Quiescent: the split is exact again and skewed toward the hot scene.
  const std::vector<std::uint64_t> settled = server.shard_budgets();
  EXPECT_EQ(settled[0] + settled[1], global);
  EXPECT_GE(settled[0], settled[1]);
  // The governor ran under real pressure, and with every pin dropped each
  // shard drained under its share — so total residency fits the global
  // budget.
  EXPECT_GT(result.report.shared_cache.evictions, 0u);
  EXPECT_LE(server.cache(0).resident_bytes() + server.cache(1).resident_bytes(),
            global);
  // The hot-scene sessions rendered correctly throughout the rebalances.
  const auto alone = core::render_sequence(scene_a, paths[0], {});
  ASSERT_EQ(result.sessions[0].size(), alone.frames.size());
  for (std::size_t f = 0; f < alone.frames.size(); ++f) {
    EXPECT_EQ(result.sessions[0][f].image.pixels(),
              alone.frames[f].image.pixels());
  }
}

// ------------------------------------------------------- fleet-scale stress --

// 64 sessions across 2 scene shards multiplexed onto 4 drivers: the
// fleet-scale target CI runs under ThreadSanitizer. Pixels are covered by
// the golden tests above; here the bar is that the scheduler at 16x
// session-per-driver oversubscription keeps every counter exact, every
// shard inside the one global budget, and every session progressing.
TEST(ServeStress, SixtyFourSessionsTwoScenesMultiplexed) {
  const auto scene_a = test_scene(48, 900, /*vq=*/false);
  const auto scene_b = test_scene(49, 700, /*vq=*/false);
  TempFile file_a("/tmp/sgs_test_serve_stress_a.sgsc");
  TempFile file_b("/tmp/sgs_test_serve_stress_b.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file_a.path, scene_a));
  ASSERT_TRUE(stream::AssetStore::write(file_b.path, scene_b));
  stream::AssetStore store_a(file_a.path);
  stream::AssetStore store_b(file_b.path);

  const int n_sessions = 64;
  const int frames = 2;
  SceneServerConfig cfg;
  cfg.cache.budget_bytes =
      (store_a.decoded_bytes_total() + store_b.decoded_bytes_total()) * 40 /
      100;
  cfg.max_concurrent_frames = 4;
  cfg.shard_rebalance_frames = 8;
  SceneServer server({&store_a, &store_b}, cfg);

  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < n_sessions; ++s) {
    ASSERT_EQ(server.open_session(cfg.lod, static_cast<std::uint32_t>(s % 2)),
              s);
    paths.push_back(session_path(s, frames, 48));
  }
  const auto result = server.run(paths);

  ASSERT_EQ(result.sessions.size(), static_cast<std::size_t>(n_sessions));
  for (int s = 0; s < n_sessions; ++s) {
    EXPECT_EQ(result.sessions[static_cast<std::size_t>(s)].size(),
              static_cast<std::size_t>(frames))
        << "session " << s;
  }

  const ServerReport& rep = result.report;
  ASSERT_EQ(rep.sessions.size(), static_cast<std::size_t>(n_sessions));
  // Shard budgets partition the global budget exactly, and what is
  // actually resident stays within it.
  ASSERT_EQ(rep.scene_budget_bytes.size(), 2u);
  EXPECT_EQ(rep.scene_budget_bytes[0] + rep.scene_budget_bytes[1],
            cfg.cache.budget_bytes);
  EXPECT_LE(server.cache(0).resident_bytes() + server.cache(1).resident_bytes(),
            cfg.cache.budget_bytes);
  // Counter exactness at fleet scale: per-session attribution sums to the
  // shard totals, which sum to the global view.
  for (std::uint32_t k = 0; k < 2; ++k) {
    core::StreamCacheStats sum;
    for (const SessionReport& sr : rep.sessions) {
      if (sr.scene == k) sum.accumulate(sr.cache);
    }
    EXPECT_EQ(sum.hits, rep.scene_caches[k].hits) << "scene " << k;
    EXPECT_EQ(sum.misses, rep.scene_caches[k].misses) << "scene " << k;
    EXPECT_EQ(sum.bytes_fetched, rep.scene_caches[k].bytes_fetched)
        << "scene " << k;
  }
  // Every session made progress and the scheduler spread the drivers
  // across the fleet rather than starving the tail.
  for (const SessionReport& sr : rep.sessions) {
    EXPECT_GT(sr.throughput_fps, 0.0);
    EXPECT_EQ(sr.queue_wait.count(), static_cast<std::uint64_t>(frames));
  }
  EXPECT_GT(rep.fairness_index, 0.5);
  EXPECT_EQ(rep.admission_rejects, 0u);
}

}  // namespace
}  // namespace sgs::serve
