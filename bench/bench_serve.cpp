// Multi-session serving benchmark (and CI smoke test).
//
// Four passes over preset walkthrough sessions:
//   golden    — up to 8 sessions rendered isolated (own cache each, cold)
//               vs shared on one serve::SceneServer; every session must be
//               bit-identical between the two runs and the shared hit rate
//               must beat the isolated mean (cross-session reuse).
//   baseline  — N sessions across S scenes, one OS thread per session
//               driving render_frame() — the pre-multiplex serving model,
//               timed for aggregate throughput.
//   multiplex — the same N sessions and paths through run()'s pool-
//               multiplexed scheduler (bounded drivers, FIFO rotation).
//               Gates: bit-identical to the baseline pass, Jain fairness
//               index >= 0.9, p99 latency bounded by --p99_factor x p50,
//               and (at >= 16 sessions, where scheduling dominates noise)
//               aggregate throughput >= 90% of the thread-per-session
//               baseline.
//   zero-stall— sessions over a coarse-floored store with a zero fetch
//               deadline: 0 stall frames everywhere, clean frames bit-
//               identical, min fallback PSNR >= 28 dB (the bench_streaming
//               bound, now held under concurrent serving).
//
// Emits BENCH_serve.json (flat key/value; schema in docs/BENCHMARKS.md).
//
//   ./bench_serve [--scene train] [--sessions 64] [--scenes_count 2]
//                 [--frames 4] [--model_scale 0.02] [--res_scale 0.25]
//                 [--arc 0.03] [--spread 0.005] [--budget_kb 0]
//                 [--max_concurrent 0] [--p99_factor 32]
//                 [--out BENCH_serve.json]
//
// --budget_kb 0 picks ~50% of the decoded scenes — small enough to evict,
// large enough that the union of the sessions' working sets still shares.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "core/render_sequence.hpp"
#include "metrics/psnr.hpp"
#include "scene/presets.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace {

constexpr const char* kUsage = R"(bench_serve — pool-multiplexed serving at scale vs per-session threads

  --scene <name>        scene preset (default train)
  --sessions <n>        viewer sessions (default 64)
  --scenes_count <n>    scenes hosted by one server (default 2)
  --frames <n>          frames per session (default 4)
  --model_scale <f>     fraction of the preset model (default 0.02)
  --res_scale <f>       fraction of the preset resolution (default 0.25)
  --arc <f>             orbit fraction each session walks (default 0.03)
  --spread <f>          orbit phase offset between sessions (default 0.005)
  --budget_kb <n>       golden-pass cache budget in KiB (0 = 50% of scene 0)
  --serve_budget_kb <n> GLOBAL budget of the scale-out passes in KiB
                        (0 = 100% of the decoded scenes; see note below)
  --max_concurrent <n>  scheduler drivers (0 = auto: min(sessions, cores))
  --p99_factor <f>      p99 latency gate: p99 <= factor * p50 (default 32)
  --out <path>          JSON output (default BENCH_serve.json)
  --help                this text

Gates (exit non-zero on failure): golden bit-exactness + reuse, multiplexed
bit-exactness vs baseline, fairness >= 0.9, p99 <= factor * p50, throughput
>= 0.9x baseline at >= 16 sessions, zero-stall (0 stalls, >= 28 dB).
Unknown flags exit 2.

Note on the scale-out budget: with one thread per session, all N sessions
hold plan pins at once, and pins legally overshoot the cache budget — the
baseline silently runs with the whole fleet working set resident no matter
how small the budget is. The multiplexed scheduler bounds in-flight pins to
the driver count and actually honors the budget, so comparing throughput
at a starving budget measures LRU thrash against budget-cheating, not
scheduling. The scale passes therefore default to a budget that holds the
fleet working set; the golden pass keeps a starving budget to exercise
eviction under sharing.
)";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgs;
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  const auto preset = scene::preset_from_name(args.get("scene", "train"));
  const int sessions = args.get_int("sessions", 64);
  const int scenes_count = std::max(1, args.get_int("scenes_count", 2));
  const int frames = args.get_int("frames", 4);
  const float model_scale =
      static_cast<float>(args.get_double("model_scale", 0.02));
  const float res_scale = static_cast<float>(args.get_double("res_scale", 0.25));
  const float arc = static_cast<float>(args.get_double("arc", 0.03));
  const float spread = static_cast<float>(args.get_double("spread", 0.005));
  const std::uint64_t budget_kb =
      static_cast<std::uint64_t>(args.get_int("budget_kb", 0));
  const std::uint64_t serve_budget_kb =
      static_cast<std::uint64_t>(args.get_int("serve_budget_kb", 0));
  const int max_concurrent = args.get_int("max_concurrent", 0);
  const double p99_factor = args.get_double("p99_factor", 32.0);
  const std::string out_path = args.get("out", "BENCH_serve.json");
  if (bench::reject_unknown_flags(args)) return 2;

  bench::print_header("multi-session serving: multiplexed scale-out",
                      "bit-identical sessions, fairness, shared residency");

  const auto model = scene::make_preset_scene(preset, model_scale);
  int w = 0, h = 0;
  scene::scaled_resolution(preset, res_scale, w, h);
  const float base_voxel = scene::preset_info(preset).default_voxel_size;

  // One store per hosted scene: the same preset grouped at different voxel
  // sizes, so the scenes genuinely differ in layout, group count, and
  // working-set bytes (scene k uses voxels (1 + k/2)x the preset size).
  std::vector<std::string> store_paths;
  std::vector<core::StreamingScene> prepared;
  for (int k = 0; k < scenes_count; ++k) {
    core::StreamingConfig scfg;
    scfg.voxel_size = base_voxel * (1.0f + 0.5f * static_cast<float>(k));
    prepared.push_back(core::StreamingScene::prepare(model, scfg));
    store_paths.push_back("/tmp/bench_serve_" + std::to_string(k) + ".sgsc");
    try {
      if (!stream::AssetStore::write(store_paths.back(), prepared.back())) {
        std::fprintf(stderr, "FAILED to write %s\n", store_paths.back().c_str());
        return 1;
      }
    } catch (const stream::StreamException& e) {
      std::fprintf(stderr, "FAILED to write store: %s\n", e.what());
      return 1;
    }
  }
  std::vector<stream::AssetStore> stores;
  std::vector<const stream::AssetStore*> store_ptrs;
  std::uint64_t decoded_total = 0;
  stores.reserve(store_paths.size());
  for (const std::string& p : store_paths) {
    stores.emplace_back(p);
    decoded_total += stores.back().decoded_bytes_total();
  }
  for (const stream::AssetStore& s : stores) store_ptrs.push_back(&s);
  // Golden pass: starving budget on scene 0 (eviction under sharing).
  // Scale passes: a budget that holds the fleet working set (see kUsage).
  const std::uint64_t budget =
      budget_kb > 0 ? budget_kb * 1024 : stores[0].decoded_bytes_total() / 2;
  const std::uint64_t serve_budget =
      serve_budget_kb > 0 ? serve_budget_kb * 1024 : decoded_total;

  // Session s orbits with a phase shift; it streams scene s % scenes_count.
  const auto path_for = [&](int s) {
    std::vector<gs::Camera> cams;
    for (int f = 0; f < frames; ++f) {
      const float t = spread * static_cast<float>(s) +
                      arc * static_cast<float>(f) / static_cast<float>(frames);
      cams.push_back(scene::make_preset_camera(preset, w, h, t));
    }
    return cams;
  };
  std::vector<std::vector<gs::Camera>> paths;
  for (int s = 0; s < sessions; ++s) paths.push_back(path_for(s));

  core::SequenceOptions seq;
  seq.reuse_max_translation = 0.25f * base_voxel;
  seq.reuse_max_rotation_rad = 0.04f;
  stream::PrefetchConfig pcfg;
  pcfg.synchronous = true;  // reproducible hit/miss split in every pass

  serve::SceneServerConfig cfg;
  cfg.cache.budget_bytes = budget;
  cfg.prefetch = pcfg;
  cfg.sequence = seq;
  cfg.max_concurrent_frames = max_concurrent;
  serve::SceneServerConfig scale_cfg = cfg;
  scale_cfg.cache.budget_bytes = serve_budget;

  const auto open_fleet = [&](serve::SceneServer& server) {
    for (int s = 0; s < sessions; ++s) {
      (void)server.open_session(
          cfg.lod, static_cast<std::uint32_t>(s % scenes_count));
    }
  };

  // --- pass 1: golden — shared vs isolated, scene 0 ------------------------
  // Bounded to 8 sessions: the isolated reference renders each session
  // cold and sequentially, which at fleet scale would dwarf the benchmark.
  const int golden_sessions = std::min(sessions, 8);
  const auto scene_ooc = stores[0].make_scene();
  std::vector<core::SequenceResult> isolated;
  double iso_hit_sum = 0.0;
  std::uint64_t iso_bytes = 0;
  for (int s = 0; s < golden_sessions; ++s) {
    stream::ResidencyCacheConfig ccfg;
    ccfg.budget_bytes = budget;
    stream::ResidencyCache cache(stores[0], ccfg);
    stream::StreamingLoader loader(cache, pcfg);
    isolated.push_back(core::render_sequence(
        scene_ooc, paths[static_cast<std::size_t>(s)], seq, &loader));
    const auto total = cache.stats();
    iso_hit_sum += total.hit_rate();
    iso_bytes += total.bytes_fetched;
  }
  const double iso_hit_mean = iso_hit_sum / golden_sessions;

  std::vector<std::vector<gs::Camera>> golden_paths(
      paths.begin(), paths.begin() + golden_sessions);
  serve::SceneServer golden_server(stores[0], cfg);
  const auto golden = golden_server.run(golden_paths);
  const serve::ServerReport& grep_ = golden.report;

  bool identical = true;
  for (int s = 0; s < golden_sessions && identical; ++s) {
    const auto& alone = isolated[static_cast<std::size_t>(s)].frames;
    const auto& served = golden.sessions[static_cast<std::size_t>(s)];
    identical = alone.size() == served.size();
    for (std::size_t f = 0; f < served.size() && identical; ++f) {
      identical = alone[f].image.pixels() == served[f].image.pixels();
    }
  }
  const bool reuse_won = grep_.global_hit_rate >= iso_hit_mean;

  // --- pass 2: baseline — one thread per session, render_frame() ----------
  double baseline_fps = 0.0;
  serve::ServerRunResult baseline;
  baseline.sessions.resize(paths.size());
  {
    serve::SceneServer server(store_ptrs, scale_cfg);
    open_fleet(server);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(paths.size());
    for (int s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        auto& frames_out = baseline.sessions[static_cast<std::size_t>(s)];
        frames_out.reserve(paths[static_cast<std::size_t>(s)].size());
        for (const gs::Camera& cam : paths[static_cast<std::size_t>(s)]) {
          frames_out.push_back(server.render_frame(s, cam));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    server.wait_idle();
    const double secs = seconds_since(t0);
    baseline_fps =
        secs > 0.0 ? static_cast<double>(sessions * frames) / secs : 0.0;
    baseline.report = server.report();
  }

  // --- pass 3: multiplexed — the same fleet through run() ------------------
  double mux_fps = 0.0;
  serve::ServerRunResult mux;
  std::uint64_t budget_sum = 0;
  {
    serve::SceneServer server(store_ptrs, scale_cfg);
    open_fleet(server);
    const auto t0 = std::chrono::steady_clock::now();
    mux = server.run(paths);
    const double secs = seconds_since(t0);
    mux_fps = secs > 0.0 ? static_cast<double>(sessions * frames) / secs : 0.0;
    for (const std::uint64_t b : server.shard_budgets()) budget_sum += b;
  }
  const serve::ServerReport& rep = mux.report;

  bool mux_identical = true;
  for (int s = 0; s < sessions && mux_identical; ++s) {
    const auto& a = baseline.sessions[static_cast<std::size_t>(s)];
    const auto& b = mux.sessions[static_cast<std::size_t>(s)];
    mux_identical = a.size() == b.size();
    for (std::size_t f = 0; f < a.size() && mux_identical; ++f) {
      mux_identical = a[f].image.pixels() == b[f].image.pixels();
    }
  }
  const double throughput_ratio =
      baseline_fps > 0.0 ? mux_fps / baseline_fps : 0.0;
  const bool fairness_ok = rep.fairness_index >= 0.9;
  const bool p99_ok = rep.p99_ms <= p99_factor * std::max(rep.p50_ms, 1e-6);
  // The throughput gate only engages where scheduling dominates noise: at
  // small session counts both passes are bounded by the render pool.
  const bool throughput_gated = sessions >= 16;
  const bool throughput_ok = !throughput_gated || throughput_ratio >= 0.9;
  const bool budget_ok = budget_sum == serve_budget;

  // --- pass 4: zero-stall serving under a frame deadline -------------------
  // bench_streaming's recipe, held under concurrency: regroup scene 0 at
  // growing voxel multipliers until a <= 5% coarse floor fits, then serve
  // with a zero deadline — no stalls allowed, fallbacks cost bounded dB.
  const int zs_sessions = std::min(sessions, 8);
  const std::string zs_path = "/tmp/bench_serve_zs.sgsc";
  float zs_voxel_mult = 0.0f;
  core::StreamingScene zs_scene_prepared;
  for (const float mult : {2.0f, 3.0f, 4.0f, 6.0f, 8.0f}) {
    core::StreamingConfig zcfg;
    zcfg.voxel_size = mult * base_voxel;
    auto candidate = core::StreamingScene::prepare(model, zcfg);
    try {
      if (!stream::AssetStore::write(
              zs_path, candidate,
              stream::AssetStoreWriteOptions::with_coarse_floor(0.04f))) {
        std::fprintf(stderr, "FAILED to write %s\n", zs_path.c_str());
        return 1;
      }
    } catch (const stream::StreamException& e) {
      std::fprintf(stderr, "FAILED to write store: %s\n", e.what());
      return 1;
    }
    stream::AssetStore probe(zs_path);
    stream::ResidencyCacheConfig pc;
    pc.budget_bytes = probe.decoded_bytes_total();
    pc.coarse_floor_budget_bytes = probe.decoded_bytes_total() * 5 / 100;
    if (stream::ResidencyCache(probe, pc).coarse_floor_enabled()) {
      zs_scene_prepared = std::move(candidate);
      zs_voxel_mult = mult;
      break;
    }
  }
  if (zs_voxel_mult == 0.0f) {
    std::fprintf(stderr, "zero-stall gate FAILED: no grouping fits a floor\n");
    return 1;
  }
  stream::AssetStore zs_store(zs_path);
  serve::SceneServerConfig zs_cfg;
  zs_cfg.cache.budget_bytes = zs_store.decoded_bytes_total() * 65 / 100;
  zs_cfg.cache.coarse_floor_budget_bytes =
      zs_store.decoded_bytes_total() * 5 / 100;
  zs_cfg.sequence = seq;
  zs_cfg.prefetch = pcfg;
  zs_cfg.prefetch.fetch_deadline_ns = 0;  // every demand fetch is past due
  // Cap the per-frame prefetch bandwidth just below the cold-start working
  // set so frame 0 provably serves its far tail from the floor (the
  // bench_streaming zero-stall recipe, shared across the fleet here).
  zs_cfg.prefetch.max_bytes_per_frame = zs_store.payload_bytes_total() * 99 / 100;
  zs_cfg.prefetch.max_groups_per_frame = static_cast<std::size_t>(-1);
  zs_cfg.lod.force_tier0 = true;
  zs_cfg.max_concurrent_frames = max_concurrent;

  std::vector<std::vector<gs::Camera>> zs_paths(
      paths.begin(), paths.begin() + zs_sessions);
  serve::SceneServer zs_server(zs_store, zs_cfg);
  const bool zs_floor_enabled = zs_server.cache().coarse_floor_enabled();
  const auto zs = zs_server.run(zs_paths);

  std::size_t zs_stall_frames = 0, zs_fallback_frames = 0;
  bool zs_clean_identical = true;
  double min_fallback_psnr = 1e30;
  for (int s = 0; s < zs_sessions; ++s) {
    const auto resident = core::render_sequence(
        zs_scene_prepared, zs_paths[static_cast<std::size_t>(s)], seq);
    const auto& served = zs.sessions[static_cast<std::size_t>(s)];
    for (std::size_t f = 0; f < served.size(); ++f) {
      const core::StreamCacheStats& cs = served[f].trace.cache;
      if (cs.misses > 0) ++zs_stall_frames;
      if (cs.coarse_fallbacks > 0) {
        ++zs_fallback_frames;
        min_fallback_psnr = std::min(
            min_fallback_psnr, metrics::psnr_capped(resident.frames[f].image,
                                                    served[f].image));
      } else {
        zs_clean_identical =
            zs_clean_identical &&
            resident.frames[f].image.pixels() == served[f].image.pixels();
      }
    }
  }
  const bool zero_stall_ok =
      zs_floor_enabled && zs_stall_frames == 0 && zs_clean_identical &&
      (zs_fallback_frames == 0 || min_fallback_psnr >= 28.0);

  // --- report --------------------------------------------------------------
  bench::Table table(
      {"pass", "fps", "hit rate", "p50 ms", "p99 ms", "stalls"});
  table.row({"isolated x" + std::to_string(golden_sessions), "-",
             bench::fmt(100.0 * iso_hit_mean, 1) + "% (mean)", "-", "-", "-"});
  table.row({"golden shared", "-",
             bench::fmt(100.0 * grep_.global_hit_rate, 1) + "%",
             bench::fmt(grep_.p50_ms, 2), bench::fmt(grep_.p99_ms, 2),
             std::to_string(grep_.stall_frames)});
  table.row({"thread/session x" + std::to_string(sessions),
             bench::fmt(baseline_fps, 1),
             bench::fmt(100.0 * baseline.report.global_hit_rate, 1) + "%",
             bench::fmt(baseline.report.p50_ms, 2),
             bench::fmt(baseline.report.p99_ms, 2),
             std::to_string(baseline.report.stall_frames)});
  table.row({"multiplexed x" + std::to_string(sessions), bench::fmt(mux_fps, 1),
             bench::fmt(100.0 * rep.global_hit_rate, 1) + "%",
             bench::fmt(rep.p50_ms, 2), bench::fmt(rep.p99_ms, 2),
             std::to_string(rep.stall_frames)});
  table.print();
  std::printf(
      "  %d sessions over %d scenes, budget %s (shards sum %s), %llu "
      "prefetch requests merged\n",
      sessions, scenes_count, format_bytes(static_cast<double>(budget)).c_str(),
      format_bytes(static_cast<double>(budget_sum)).c_str(),
      static_cast<unsigned long long>(rep.merged_prefetch_requests));
  std::printf(
      "  multiplexed: throughput %.2fx baseline (%s), fairness %.3f, "
      "queue-wait p99 %.2f ms, admission rejects %llu\n",
      throughput_ratio, throughput_gated ? "gated >= 0.9" : "ungated",
      rep.fairness_index, rep.queue_wait_p99_ms,
      static_cast<unsigned long long>(rep.admission_rejects));
  std::printf("  golden sessions bit-identical to isolated runs: %s\n",
              identical ? "yes" : "NO");
  std::printf("  multiplexed bit-identical to thread-per-session: %s\n",
              mux_identical ? "yes" : "NO");
  std::printf(
      "  zero-stall (%.0fx voxel groups, %d sessions): %zu stall frames, "
      "%zu fallback frames, min fallback PSNR %.1f dB (gates: 0 stalls, >= "
      "28 dB): %s\n",
      zs_voxel_mult, zs_sessions, zs_stall_frames, zs_fallback_frames,
      zs_fallback_frames > 0 ? min_fallback_psnr : 0.0,
      zero_stall_ok ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"sessions\": " << sessions << ",\n"
       << "  \"scenes\": " << scenes_count << ",\n"
       << "  \"frames_per_session\": " << frames << ",\n"
       << "  \"budget_bytes\": " << budget << ",\n"
       << "  \"serve_budget_bytes\": " << serve_budget << ",\n"
       << "  \"shard_budget_sum_bytes\": " << budget_sum << ",\n"
       << "  \"shared_hit_rate\": " << grep_.global_hit_rate << ",\n"
       << "  \"isolated_hit_rate_mean\": " << iso_hit_mean << ",\n"
       << "  \"isolated_bytes_fetched_total\": " << iso_bytes << ",\n"
       << "  \"baseline_fps\": " << baseline_fps << ",\n"
       << "  \"multiplexed_fps\": " << mux_fps << ",\n"
       << "  \"throughput_ratio\": " << throughput_ratio << ",\n"
       << "  \"fairness_index\": " << rep.fairness_index << ",\n"
       << "  \"p50_ms\": " << rep.p50_ms << ",\n"
       << "  \"p95_ms\": " << rep.p95_ms << ",\n"
       << "  \"p99_ms\": " << rep.p99_ms << ",\n"
       << "  \"queue_wait_p50_ms\": " << rep.queue_wait_p50_ms << ",\n"
       << "  \"queue_wait_p99_ms\": " << rep.queue_wait_p99_ms << ",\n"
       << "  \"admission_rejects\": " << rep.admission_rejects << ",\n"
       << "  \"merged_prefetch_requests\": " << rep.merged_prefetch_requests
       << ",\n"
       << "  \"stall_frames\": " << rep.stall_frames << ",\n"
       << "  \"zs_stall_frames\": " << zs_stall_frames << ",\n"
       << "  \"zs_fallback_frames\": " << zs_fallback_frames << ",\n"
       << "  \"min_fallback_psnr_db\": "
       << (zs_fallback_frames > 0 ? min_fallback_psnr : 0.0) << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"mux_bit_identical\": " << (mux_identical ? "true" : "false")
       << ",\n"
       << "  \"reuse_won\": " << (reuse_won ? "true" : "false") << ",\n"
       << "  \"fairness_ok\": " << (fairness_ok ? "true" : "false") << ",\n"
       << "  \"p99_ok\": " << (p99_ok ? "true" : "false") << ",\n"
       << "  \"throughput_ok\": " << (throughput_ok ? "true" : "false")
       << ",\n"
       << "  \"budget_conserved\": " << (budget_ok ? "true" : "false") << ",\n"
       << "  \"zero_stall_ok\": " << (zero_stall_ok ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote %s\n", out_path.c_str());

  for (const std::string& p : store_paths) std::remove(p.c_str());
  std::remove(zs_path.c_str());

  bool ok = identical && reuse_won && mux_identical && fairness_ok && p99_ok &&
            throughput_ok && budget_ok && zero_stall_ok;
  if (!ok) {
    std::fprintf(stderr,
                 "serve gate FAILED: golden=%d reuse=%d mux=%d fairness=%d "
                 "p99=%d throughput=%d budget=%d zero_stall=%d\n",
                 identical, reuse_won, mux_identical, fairness_ok, p99_ok,
                 throughput_ok, budget_ok, zero_stall_ok);
  }
  return ok ? 0 : 1;
}
