// VR walkthrough: the motivating scenario of the paper's introduction.
//
// A headset renders a trained scene along a camera trajectory and must
// sustain 90 FPS. This example walks a camera through a real-world-style
// scene with the frame-sequence API (SequenceRenderer): consecutive frames
// whose camera moved less than the reuse thresholds share one FramePlan, so
// the per-frame voxel-table rebuild is skipped — the trace then charges the
// VSU zero table steps and the simulated accelerator gets the reuse win. It
// reports per-frame quality, DRAM traffic, plan reuse, the simulated frame
// rate of the mobile GPU, GSCore, and the STREAMINGGS accelerator against
// the 90 FPS budget, and where the software model actually spent its time
// per pipeline stage.
//
//   ./vr_walkthrough [--scene playroom] [--frames 8] [--model_scale 0.05]
//                    [--res_scale 0.4] [--arc 1.0] [--save_frames out_dir]
//                    [--out_of_core true] [--cache_mb 8] [--lod balanced]
//                    [--floor_pct 5] [--deadline_ms 2] [--net_profile lossy]
//                    [--trace out.json] [--threads 4]
//
// --arc is the fraction of the full orbit the walkthrough covers: 1.0 is
// the legacy whole-orbit keyframe sweep (cameras too far apart to reuse
// anything), while a headset-like creep such as --arc 0.02 keeps
// consecutive frames inside the reuse envelope.
//
// --out_of_core serializes the prepared scene to a .sgsc asset store and
// renders from a residency cache (budget --cache_mb, 0 = 35% of the store)
// fed by the prefetching loader instead of from memory: the frames are
// bit-identical, and the report gains per-frame cache hit rate, fetch
// traffic, and stall markers (frames that took a demand miss).
//
// --lod selects the adaptive-LOD streaming policy for the out-of-core
// path (off | quality | balanced | aggressive). Anything but "off" writes
// the store with three payload tiers and streams distant voxel groups at
// pruned fidelity: the PSNR column then shows the quality cost while the
// cache column's traffic shrinks. "off" forces L0 everywhere and keeps
// the bit-identical guarantee.
//
// --floor_pct pins every group's coarsest payload at open under the given
// budget (percent of the decoded scene) — the always-resident floor; with
// --deadline_ms, a demand fetch that would run past the per-frame deadline
// renders that group from the floor this frame instead of stalling
// ("fallback" markers in the cache column) and re-queues the wanted tier
// at urgent priority. Without a floor the deadline has nothing to fall
// back on and acquire blocks exactly as before.
// --net_profile streams the out-of-core store over a deterministic
// simulated network link (fast | constrained | lossy) instead of the
// local file, with the ABR throughput term live under an adaptive --lod:
// the loader's bandwidth estimator learns the link from real transfers and
// tier selection demotes what the link cannot sustain. The report gains
// link traffic, simulated wire time, timeouts, and the converged estimate.
//
// --trace exports the run's observability artifacts: a Chrome Trace Event /
// Perfetto-compatible span timeline of every pipeline stage, cache fetch,
// and prefetch batch (load the JSON in https://ui.perfetto.dev), plus a
// JSONL metrics snapshot per frame next to it (<path>.metrics.jsonl).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/ppm.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "obs/publish.hpp"
#include "obs/trace.hpp"
#include "render/tile_renderer.hpp"
#include "scene/presets.hpp"
#include "sim/gpu_model.hpp"
#include "sim/gscore_sim.hpp"
#include "sim/streaminggs_sim.hpp"
#include "stream/asset_store.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace {

// Keep in sync with every args.get* below — the satellite check for this is
// that `--help` names exactly the flags main() accepts.
constexpr const char* kUsage =
    R"(vr_walkthrough — frame-sequence rendering against the 90 FPS VR budget

  --scene <name>        scene preset (default train)
  --frames <n>          keyframes along the walkthrough (default 8)
  --model_scale <f>     fraction of the full preset model (default 0.05)
  --res_scale <f>       fraction of the preset resolution (default 0.4)
  --arc <f>             fraction of the orbit covered; small values (0.02)
                        keep consecutive frames inside the plan-reuse
                        envelope (default 1.0)
  --save_frames <dir>   write each frame as PPM into an existing directory
  --out_of_core <bool>  serialize to a .sgsc store and render through the
                        residency cache + prefetch loader (default false)
  --cache_mb <n>        out-of-core cache budget in MiB; 0 = 35% of the
                        decoded scene (default 0)
  --lod <policy>        LOD streaming policy for --out_of_core:
                        off | quality | balanced | aggressive (default off;
                        "off" keeps frames bit-identical to resident)
  --floor_pct <f>       pin an always-resident coarse floor under this
                        budget, in percent of the decoded scene (default 0
                        = no floor; the store then gets a pruned coarse
                        tier even when --lod is off)
  --deadline_ms <f>     per-frame demand-fetch deadline; a fetch past it
                        serves the coarse floor instead of stalling
                        (default 0 = block like the pre-deadline loader)
  --net_profile <name>  stream the --out_of_core store over a deterministic
                        simulated link (fast | constrained | lossy) instead
                        of the local file; with an adaptive --lod the ABR
                        term demotes tiers the measured link cannot sustain
                        (default "" = local file)
  --trace <path>        export a Chrome Trace Event / Perfetto JSON span
                        timeline to <path> and per-frame metrics snapshots
                        to <path>.metrics.jsonl (tracing changes no pixel)
  --threads <n>         pin the thread pool width; 0 = hardware default
                        (results are bit-identical for any width)
  --force_scalar <bool> pin the per-Gaussian kernels to the scalar reference
                        path instead of the detected SIMD ISA (default false)
  --help                this text
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace sgs;
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  const auto preset = scene::preset_from_name(args.get("scene", "train"));
  const int frames = args.get_int("frames", 8);
  const float model_scale = static_cast<float>(args.get_double("model_scale", 0.05));
  const float res_scale = static_cast<float>(args.get_double("res_scale", 0.4));
  const float arc = static_cast<float>(args.get_double("arc", 1.0));
  const std::string save_dir = args.get("save_frames", "");
  const bool out_of_core = args.get_bool("out_of_core", false);
  const int cache_mb = args.get_int("cache_mb", 0);
  const std::string lod_name = args.get("lod", "off");
  const double floor_pct = args.get_double("floor_pct", 0.0);
  const double deadline_ms = args.get_double("deadline_ms", 0.0);
  const std::string net_profile = args.get("net_profile", "");
  const stream::LodPolicy lod_policy = stream::lod_policy_from_name(lod_name);
  if (args.get_bool("force_scalar", false)) {
    simd::force_isa(simd::IsaLevel::kScalar);
  }
  const int threads = args.get_int("threads", 0);
  if (threads > 0) {
    set_parallelism(threads);
  }
  const std::string trace_path = args.get("trace", "");
  std::ofstream metrics_jsonl;
  if (!trace_path.empty()) {
    metrics_jsonl.open(trace_path + ".metrics.jsonl");
    if (!metrics_jsonl) {
      std::fprintf(stderr, "cannot write %s.metrics.jsonl\n",
                   trace_path.c_str());
      return 1;
    }
    obs::set_thread_name("main");
    obs::set_trace_enabled(true);
  }

  const auto& info = scene::preset_info(preset);
  std::printf("== VR walkthrough: '%s', %d keyframes over %.0f%% of the orbit, "
              "90 FPS budget ==\n",
              info.name.c_str(), frames, arc * 100.0);
  std::printf("kernel dispatch: %s (detected %s)\n",
              simd::isa_name(simd::active_isa()),
              simd::isa_name(simd::detect_isa()));

  const auto model = scene::make_preset_scene(preset, model_scale);
  int w = 0, h = 0;
  scene::scaled_resolution(preset, res_scale, w, h);

  // Offline preparation (voxelization + VQ) happens once per scene.
  core::StreamingConfig scfg;
  scfg.voxel_size = info.default_voxel_size;
  const auto scene_prepared = core::StreamingScene::prepare(model, scfg);
  std::printf("scene: %zu Gaussians, %d non-empty voxels, codebooks %s\n\n",
              model.size(), scene_prepared.grid().voxel_count(),
              format_bytes(static_cast<double>(
                               scene_prepared.quantized()->codebook_bytes()))
                  .c_str());

  // Frame-sequence rendering: the reuse envelope scales with the scene
  // (a quarter voxel of translation, ~2 degrees of rotation).
  core::SequenceOptions seq_options;
  seq_options.render.collect_stage_timing = true;
  seq_options.reuse_max_translation = 0.25f * scfg.voxel_size;
  seq_options.reuse_max_rotation_rad = 0.04f;  // ~2.3 deg ~= the plan margin
  // The fat binning margin (more candidates per group, hence more coarse
  // traffic) is only worth paying when consecutive frames can actually
  // reuse the plan; a sparse keyframe sweep gets the renderer's 1 px.
  const float step_rad = 6.2831853f * arc / static_cast<float>(frames);
  if (step_rad > seq_options.reuse_max_rotation_rad) {
    seq_options.plan_margin_px = 1.0f;
  }

  // Out-of-core mode: scene -> .sgsc store -> residency cache + prefetch
  // loader; the sequence renderer pulls voxel groups through the cache and
  // renders bit-identical frames to the resident path.
  std::unique_ptr<stream::AssetStore> store;
  std::shared_ptr<stream::SimulatedNetworkBackend> net;
  std::unique_ptr<stream::ResidencyCache> cache;
  std::unique_ptr<stream::StreamingLoader> loader;
  core::StreamingScene scene_ooc;
  const core::StreamingScene* active_scene = &scene_prepared;
  if (out_of_core) {
    const std::string store_path = "/tmp/vr_walkthrough.sgsc";
    stream::AssetStoreWriteOptions wopts;
    // An adaptive policy needs the pruned payload tiers on disk; "off"
    // keeps the plain single-tier (v1) store of the bit-exact path. A
    // floor needs a cheap coarse tier to pin regardless of the policy.
    wopts.tier_count = lod_policy.force_tier0 ? 1 : 3;
    if (floor_pct > 0.0) {
      wopts = stream::AssetStoreWriteOptions::with_coarse_floor();
    }
    try {
      if (!stream::AssetStore::write(store_path, scene_prepared, wopts)) {
        std::fprintf(stderr, "cannot write %s\n", store_path.c_str());
        return 1;
      }
    } catch (const stream::StreamException& e) {
      // IO failure (e.g. a full disk) is a typed throw since the writer
      // started verifying its stream; exit as gracefully as the bool path.
      std::fprintf(stderr, "cannot write store: %s\n", e.what());
      return 1;
    }
    if (net_profile.empty()) {
      store = std::make_unique<stream::AssetStore>(store_path);
    } else {
      stream::NetProfile prof;
      try {
        prof = stream::NetProfile::from_name(net_profile);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
      net = std::make_shared<stream::SimulatedNetworkBackend>(
          std::make_shared<stream::LocalFileBackend>(store_path), prof);
      stream::StreamError err;
      store = stream::AssetStore::open(net, &err);
      if (!store) {
        std::fprintf(stderr, "cannot open store over '%s' link: %s\n",
                     net_profile.c_str(), err.to_string().c_str());
        return 1;
      }
    }
    stream::ResidencyCacheConfig ccfg;
    // Budgets are decoded bytes; default to 35% of the decoded scene (the
    // on-disk payload total would be ~10x smaller under VQ).
    ccfg.budget_bytes = cache_mb > 0
                            ? static_cast<std::uint64_t>(cache_mb) << 20
                            : store->decoded_bytes_total() * 35 / 100;
    if (floor_pct > 0.0) {
      ccfg.coarse_floor_budget_bytes = static_cast<std::uint64_t>(
          static_cast<double>(store->decoded_bytes_total()) * floor_pct /
          100.0);
    }
    cache = std::make_unique<stream::ResidencyCache>(*store, ccfg);
    stream::PrefetchConfig pcfg;
    pcfg.lod = lod_policy;
    // Over a simulated link the ABR term goes live (unless L0 is forced,
    // which keeps the bit-exact guarantee): tier selection and the
    // prefetch byte cap track the loader's measured link estimate over a
    // ~100 ms fetch horizon.
    if (net != nullptr && !pcfg.lod.force_tier0) {
      pcfg.lod.abr_frame_budget_ns = 100'000'000;
    }
    if (deadline_ms > 0.0) {
      pcfg.fetch_deadline_ns =
          static_cast<std::uint64_t>(deadline_ms * 1e6);
    }
    loader = std::make_unique<stream::StreamingLoader>(*cache, pcfg);
    scene_ooc = store->make_scene();
    active_scene = &scene_ooc;
    std::printf("out-of-core: store %s in %d voxel groups, cache budget %s, "
                "lod %s\n",
                format_bytes(static_cast<double>(store->payload_bytes_total()))
                    .c_str(),
                store->group_count(),
                format_bytes(static_cast<double>(ccfg.budget_bytes)).c_str(),
                lod_name.c_str());
    if (floor_pct > 0.0) {
      // The floor is all-or-nothing: over budget it disables itself and
      // the deadline degenerates to the blocking path (open() reports
      // which happened).
      std::printf("coarse floor: %s (%s pinned = %.2f%% of the decoded "
                  "scene), demand deadline %s\n",
                  cache->coarse_floor_enabled() ? "enabled" : "DISABLED",
                  format_bytes(static_cast<double>(cache->coarse_floor_bytes()))
                      .c_str(),
                  100.0 * static_cast<double>(cache->coarse_floor_bytes()) /
                      static_cast<double>(store->decoded_bytes_total()),
                  deadline_ms > 0.0 ? (std::to_string(deadline_ms) + " ms").c_str()
                                    : "none (blocking)");
    }
  }
  core::SequenceRenderer sequence(*active_scene, seq_options, loader.get());

  std::printf("%6s %10s %10s %5s | %9s %9s %11s | %s%s\n", "frame", "PSNR",
              "traffic", "plan", "GPU fps", "GSCore", "StreamingGS", "90 FPS?",
              out_of_core ? " | cache" : "");

  double worst_fps = 1e30;
  core::StageTimingsNs stage_total;
  core::StreamCacheStats cache_total;
  int stall_frames = 0;
  int fallback_frames = 0;
  std::array<std::uint64_t, core::kLodTierCount> tier_requests{};
  int degraded_frames = 0;
  for (int f = 0; f < frames; ++f) {
    const float t = arc * static_cast<float>(f) / static_cast<float>(frames);
    const auto cam = scene::make_preset_camera(preset, w, h, t);

    const auto reference = render::render_tile_centric(model, cam);
    const auto streamed = sequence.render(cam);
    stage_total.accumulate(streamed.trace.total_stage_ns());

    const auto gpu = sim::simulate_gpu(reference.trace);
    const auto gscore = sim::simulate_gscore(reference.trace);
    const auto accel = sim::simulate_streaminggs(streamed.trace);
    worst_fps = std::min(worst_fps, accel.fps);

    char cache_col[64] = "";
    if (out_of_core) {
      const core::StreamCacheStats& cs = streamed.trace.cache;
      cache_total.accumulate(cs);
      if (cs.misses > 0) ++stall_frames;
      const stream::TierSelection& sel = loader->frame_selection();
      for (int t = 0; t < core::kLodTierCount; ++t) {
        tier_requests[static_cast<std::size_t>(t)] +=
            sel.histogram[static_cast<std::size_t>(t)];
      }
      if (sel.demoted > 0) ++degraded_frames;
      if (cs.coarse_fallbacks > 0) ++fallback_frames;
      std::snprintf(cache_col, sizeof(cache_col), " | %4.0f%%%s%s",
                    100.0 * cs.hit_rate(), cs.misses > 0 ? " stall" : "",
                    cs.coarse_fallbacks > 0 ? " fallback" : "");
    }
    std::printf("%6d %8.2fdB %10s %5s | %9.1f %9.1f %11.1f | %s%s\n", f,
                metrics::psnr_capped(streamed.image, reference.image),
                format_bytes(static_cast<double>(streamed.stats.total_dram_bytes()))
                    .c_str(),
                streamed.trace.plan_reused ? "reuse" : "build",
                gpu.report.fps, gscore.fps, accel.fps,
                accel.fps >= 90.0 ? "yes" : "NO", cache_col);

    if (!save_dir.empty()) {
      write_ppm(save_dir + "/walk_" + std::to_string(f) + ".ppm", streamed.image);
    }

    if (!trace_path.empty()) {
      // One JSONL metrics line per frame: this frame's stage and cache
      // counters plus the pool / async-lane totals.
      obs::write_frame_metrics_jsonl(metrics_jsonl,
                                     static_cast<std::uint64_t>(f),
                                     streamed.trace.total_stage_ns(),
                                     streamed.trace.cache);
    }
  }

  std::printf("\nplans built: %zu, reused: %zu of %d frames\n",
              sequence.stats().plans_built, sequence.stats().plans_reused,
              frames);
  if (out_of_core) {
    loader->wait_idle();
    std::printf("cache: %.1f%% hit rate (%llu hits, %llu misses), "
                "%llu prefetches, %llu evictions, fetched %s, "
                "%d/%d stall frames\n",
                100.0 * cache_total.hit_rate(),
                static_cast<unsigned long long>(cache_total.hits),
                static_cast<unsigned long long>(cache_total.misses),
                static_cast<unsigned long long>(cache_total.prefetches),
                static_cast<unsigned long long>(cache_total.evictions),
                format_bytes(static_cast<double>(cache_total.bytes_fetched))
                    .c_str(),
                stall_frames, frames);
    if (fallback_frames > 0) {
      std::printf("deadline: %d/%d frames served %llu group reads from the "
                  "coarse floor instead of stalling\n",
                  fallback_frames, frames,
                  static_cast<unsigned long long>(
                      cache_total.coarse_fallbacks));
    }
    if (net != nullptr) {
      const stream::FetchBackendStats nstats = net->stats();
      std::printf("network (%s): %llu transfers, %s on the wire, %llu "
                  "timeouts, %.1f ms simulated wire time, estimated link "
                  "%.2f MB/s, %llu ABR demotions\n",
                  net_profile.c_str(),
                  static_cast<unsigned long long>(nstats.requests),
                  format_bytes(static_cast<double>(nstats.bytes)).c_str(),
                  static_cast<unsigned long long>(nstats.timeouts),
                  static_cast<double>(net->now_ns()) * 1e-6,
                  loader->estimator().bandwidth_bytes_per_sec() / 1e6,
                  static_cast<unsigned long long>(
                      loader->stats().abr_demotions));
    }
    std::printf("lod (%s): tier requests L0/L1/L2 = %llu/%llu/%llu, "
                "%llu upgrades, %d budget-degraded frames\n",
                lod_name.c_str(),
                static_cast<unsigned long long>(tier_requests[0]),
                static_cast<unsigned long long>(tier_requests[1]),
                static_cast<unsigned long long>(tier_requests[2]),
                static_cast<unsigned long long>(cache_total.upgrades),
                degraded_frames);
    // Fault isolation: non-zero here means the store misbehaved and the
    // walkthrough survived it — frames rendered without the bad groups.
    if (cache_total.fetch_errors > 0 || cache_total.degraded_groups > 0 ||
        sgs::async_task_errors() > 0) {
      std::printf("faults: %llu fetch errors, %llu degraded serves, "
                  "%llu groups failed for good, %llu async-lane errors\n",
                  static_cast<unsigned long long>(cache_total.fetch_errors),
                  static_cast<unsigned long long>(cache_total.degraded_groups),
                  static_cast<unsigned long long>(cache_total.failed_groups),
                  static_cast<unsigned long long>(sgs::async_task_errors()));
    }
  }
  const double total_ns = static_cast<double>(stage_total.total());
  if (total_ns > 0.0) {
    std::printf("software stage time: plan %.1f%%, vsu %.1f%%, filter %.1f%%, "
                "sort %.1f%%, blend %.1f%%, fetch %.1f%%, decode %.1f%%\n",
                100.0 * static_cast<double>(stage_total.plan) / total_ns,
                100.0 * static_cast<double>(stage_total.vsu) / total_ns,
                100.0 * static_cast<double>(stage_total.filter) / total_ns,
                100.0 * static_cast<double>(stage_total.sort) / total_ns,
                100.0 * static_cast<double>(stage_total.blend) / total_ns,
                100.0 * static_cast<double>(stage_total.fetch) / total_ns,
                100.0 * static_cast<double>(stage_total.decode) / total_ns);
  }
  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::size_t span_events = 0;
    const auto threads = obs::trace_collect();
    for (const auto& t : threads) span_events += t.events.size();
    std::printf("trace: %zu events from %zu threads -> %s "
                "(load in ui.perfetto.dev; %llu dropped by ring bounds), "
                "metrics -> %s.metrics.jsonl\n",
                span_events, threads.size(), trace_path.c_str(),
                static_cast<unsigned long long>(obs::trace_dropped_total()),
                trace_path.c_str());
  }
  std::printf("worst-case accelerator frame rate: %.1f FPS (budget 90)\n",
              worst_fps);
  std::printf(
      "note: at full paper scale the GPU lands at 2-9 FPS (see "
      "bench/fig03_fps_mobile); the accelerator's margin is what makes "
      "untethered VR viable.\n");
  return 0;
}
