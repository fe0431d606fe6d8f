// Out-of-core streaming benchmark (and CI smoke test).
//
// Three passes over the same walkthrough trajectory:
//   resident     — the whole prepared scene in memory (the pre-stream path)
//   out-of-core  — the scene serialized to a tiered .sgsc asset store (v2,
//                  three payload tiers), rendered through a ResidencyCache
//                  (byte budget << scene size) fed by the prefetching
//                  StreamingLoader with LOD forced to L0. The images must
//                  be bit-identical to the resident pass — the benchmark
//                  exits non-zero otherwise, which is what makes it a
//                  meaningful smoke test.
//   LOD frontier — a raw (uncompressed) tiered store rendered twice, L0-
//                  forced and at the default adaptive LodPolicy, reporting
//                  the bandwidth-vs-PSNR frontier: fetched bytes saved and
//                  the per-frame PSNR floor against the resident render.
//                  Exits non-zero unless the default policy saves >= 30%
//                  of fetched bytes at >= 30 dB min PSNR.
//
// A fourth, traced pass re-runs the out-of-core configuration with span
// tracing enabled and gates the observability overhead contract: the
// traced pass must stay bit-identical and within 5% (and 0.5 ms/frame
// absolute) of the untraced pass, and the disabled-path cost — measured
// directly as ns per dormant span site times the traced event rate — must
// stay under 2% of frame time. --trace_out exports the traced pass as
// Chrome Trace Event JSON, which CI feeds to trace_stats.
//
// Emits BENCH_streaming.json (flat key/value) for trend tracking; see
// docs/BENCHMARKS.md for the schema and how CI consumes it.
//
// Flags: see kUsage below (`--help` prints it). --budget_kb 0 picks a
// budget of ~35% of the store's decoded bytes, small enough to force
// eviction traffic on every preset.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "obs/trace.hpp"
#include "scene/presets.hpp"
#include "stream/asset_store.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace {

constexpr const char* kUsage = R"(bench_streaming — out-of-core streaming: resident vs cache-backed vs LOD

  --scene <name>      scene preset (default train)
  --frames <n>        walkthrough frames (default 8)
  --model_scale <f>   fraction of the preset model (default 0.02)
  --res_scale <f>     fraction of the preset resolution (default 0.25)
  --arc <f>           orbit fraction the walkthrough covers (default 0.03)
  --budget_kb <n>     cache budget in KiB (0 = 35% of the decoded store)
  --out <path>        JSON output (default BENCH_streaming.json)
  --trace_out <path>  export the traced pass as Chrome Trace Event JSON
  --help              this text

Gates (exit non-zero on failure): out-of-core and traced passes
bit-identical to resident, adaptive LOD saves >= 30% of fetched bytes at
>= 30 dB, tracing overhead within budget, zero-stall pass never stalls
and serves >= 1 frame from the floor at >= 28 dB. Unknown flags exit 2.
)";

std::vector<sgs::gs::Camera> make_trajectory(sgs::scene::ScenePreset preset,
                                             int w, int h, int frames,
                                             float arc) {
  std::vector<sgs::gs::Camera> cams;
  cams.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const float t = arc * static_cast<float>(f) / static_cast<float>(frames);
    cams.push_back(sgs::scene::make_preset_camera(preset, w, h, t));
  }
  return cams;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
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
  const int frames = args.get_int("frames", 8);
  const float model_scale = static_cast<float>(args.get_double("model_scale", 0.02));
  const float res_scale = static_cast<float>(args.get_double("res_scale", 0.25));
  const float arc = static_cast<float>(args.get_double("arc", 0.03));
  const std::uint64_t budget_kb =
      static_cast<std::uint64_t>(args.get_int("budget_kb", 0));
  const std::string out_path = args.get("out", "BENCH_streaming.json");
  const std::string trace_out = args.get("trace_out", "");
  if (bench::reject_unknown_flags(args)) return 2;
  const std::string store_path = "/tmp/bench_streaming.sgsc";

  bench::print_header("out-of-core streaming: resident vs cache-backed vs LOD",
                      "bit-identical at L0, bandwidth-vs-PSNR frontier below");

  // Pin the pool width: the exported trace must exercise multi-threaded
  // emission (CI requires spans from >= 3 threads) even on single-core
  // smoke runners, and a fixed width keeps frame times comparable across
  // differently-sized machines.
  set_parallelism(4);

  const auto model = scene::make_preset_scene(preset, model_scale);
  int w = 0, h = 0;
  scene::scaled_resolution(preset, res_scale, w, h);
  core::StreamingConfig scfg;
  scfg.voxel_size = scene::preset_info(preset).default_voxel_size;
  const auto scene_resident = core::StreamingScene::prepare(model, scfg);
  const auto cameras = make_trajectory(preset, w, h, frames, arc);

  core::SequenceOptions seq;
  seq.reuse_max_translation = 0.25f * scfg.voxel_size;
  seq.reuse_max_rotation_rad = 0.04f;
  // Stage timing on for every pass: the traced pass reuses the stage
  // accumulators for its aggregated spans, so with timing already on in
  // the baseline the traced/untraced delta isolates pure emission cost.
  seq.render.collect_stage_timing = true;

  // Best-of-N timing: on small (possibly single-core) CI runners the
  // pass-to-pass scheduler jitter rivals the tracing overhead the gate
  // below measures, and the minimum is the standard jitter filter.
  constexpr int kTimingReps = 3;

  // --- resident pass ---------------------------------------------------------
  double resident_ms = 1e300;
  core::SequenceResult resident;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const double t0 = now_ms();
    resident = core::render_sequence(scene_resident, cameras, seq);
    resident_ms = std::min(resident_ms, (now_ms() - t0) / frames);
  }

  // --- out-of-core pass (tiered store, LOD forced to L0) ---------------------
  stream::AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  try {
    if (!stream::AssetStore::write(store_path, scene_resident, wopts)) {
      std::fprintf(stderr, "FAILED to write %s\n", store_path.c_str());
      return 1;
    }
  } catch (const stream::StreamException& e) {
    std::fprintf(stderr, "FAILED to write store: %s\n", e.what());
    return 1;
  }
  stream::AssetStore store(store_path);
  stream::ResidencyCacheConfig ccfg;
  // Default budget: 35% of the *decoded* working set (the budget's unit),
  // not of the on-disk payloads — under VQ those differ by ~10x.
  ccfg.budget_bytes = budget_kb > 0 ? budget_kb * 1024
                                    : store.decoded_bytes_total() * 35 / 100;
  stream::PrefetchConfig pcfg;
  pcfg.lod.force_tier0 = true;  // the golden invariant this bench enforces
  const auto scene_ooc = store.make_scene();

  // --- out-of-core passes, untraced + traced (overhead gate) -----------------
  // Each rep gets a fresh cache/loader so the fetch pattern repeats; the
  // last rep's frames and stats are the ones reported (identical anyway —
  // that is the invariant being checked). The untraced and traced reps are
  // interleaved so page-cache and scheduler drift hits both sides alike:
  // the gate below compares their minima and must only see tracing.
  obs::set_thread_name("main");
  double ooc_ms = 1e300, traced_ms = 1e300;
  core::SequenceResult ooc, traced;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    {
      stream::ResidencyCache cache(store, ccfg);
      stream::StreamingLoader loader(cache, pcfg);
      const double t1 = now_ms();
      ooc = core::render_sequence(scene_ooc, cameras, seq, &loader);
      loader.wait_idle();
      ooc_ms = std::min(ooc_ms, (now_ms() - t1) / frames);
    }
    {
      stream::ResidencyCache tcache(store, ccfg);
      stream::StreamingLoader tloader(tcache, pcfg);
      obs::trace_reset();  // keep only the last rep's timeline
      obs::set_trace_enabled(true);
      const double t2 = now_ms();
      traced = core::render_sequence(scene_ooc, cameras, seq, &tloader);
      tloader.wait_idle();
      traced_ms = std::min(traced_ms, (now_ms() - t2) / frames);
      obs::set_trace_enabled(false);
    }
  }

  std::size_t trace_events = 0;
  for (const auto& t : obs::trace_collect()) trace_events += t.events.size();
  const std::uint64_t trace_dropped = obs::trace_dropped_total();
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "FAILED to write trace %s\n", trace_out.c_str());
      return 1;
    }
  }

  // Overhead gates. Wall-clock A/B of the two passes above is reported for
  // humans, but a shared CI runner's disk and scheduler tails (single
  // fetches can stall for milliseconds) swamp the sub-millisecond effect
  // being gated, so the pass/fail signal instead measures the per-event
  // cost directly — a tight probe loop over a span site — and scales it by
  // the event rate the traced pass actually produced. The same
  // methodology covers both gates: the dormant site (one relaxed load and
  // a branch) and the live site (two clock reads plus a ring push).
  constexpr int kProbeIters = 1 << 20;
  const double d0 = now_ms();
  for (int i = 0; i < kProbeIters; ++i) {
    SGS_TRACE_SPAN("bench", "disabled_probe");
    asm volatile("" ::: "memory");
  }
  const double disabled_span_ns = (now_ms() - d0) * 1e6 / kProbeIters;
  // The enabled probe runs after the export above, so its events are not
  // in the artifact; the reset below clears them from the rings.
  obs::set_trace_enabled(true);
  const double e0 = now_ms();
  for (int i = 0; i < kProbeIters; ++i) {
    SGS_TRACE_SPAN("bench", "enabled_probe");
    asm volatile("" ::: "memory");
  }
  const double enabled_span_ns = (now_ms() - e0) * 1e6 / kProbeIters;
  obs::set_trace_enabled(false);
  obs::trace_reset();
  const double events_per_frame =
      static_cast<double>(trace_events) / static_cast<double>(frames);
  const double disabled_pct =
      ooc_ms > 0.0 ? 100.0 * disabled_span_ns * events_per_frame /
                         (ooc_ms * 1e6)
                   : 0.0;
  const double enabled_pct =
      ooc_ms > 0.0 ? 100.0 * enabled_span_ns * events_per_frame /
                         (ooc_ms * 1e6)
                   : 0.0;

  // --- compare + report ------------------------------------------------------
  bool identical = resident.frames.size() == ooc.frames.size();
  int stall_frames = 0;
  core::StreamCacheStats total;
  for (std::size_t f = 0; f < ooc.frames.size() && identical; ++f) {
    identical = resident.frames[f].image.pixels() == ooc.frames[f].image.pixels();
    total.accumulate(ooc.frames[f].trace.cache);
    if (ooc.frames[f].trace.cache.misses > 0) ++stall_frames;
  }
  bool traced_identical = resident.frames.size() == traced.frames.size();
  core::StreamCacheStats traced_total;
  for (std::size_t f = 0; f < traced.frames.size() && traced_identical; ++f) {
    traced_identical =
        resident.frames[f].image.pixels() == traced.frames[f].image.pixels();
    traced_total.accumulate(traced.frames[f].trace.cache);
  }

  bench::Table table({"mode", "frame ms", "hit rate", "fetched", "evictions",
                      "stall frames"});
  table.row({"resident", bench::fmt(resident_ms), "-", "-", "-", "-"});
  table.row({"out-of-core L0", bench::fmt(ooc_ms),
             bench::fmt(100.0 * total.hit_rate(), 1) + "%",
             format_bytes(static_cast<double>(total.bytes_fetched)),
             std::to_string(total.evictions), std::to_string(stall_frames)});
  table.row({"out-of-core traced", bench::fmt(traced_ms),
             bench::fmt(100.0 * traced_total.hit_rate(), 1) + "%",
             format_bytes(static_cast<double>(traced_total.bytes_fetched)),
             std::to_string(traced_total.evictions), "-"});
  table.print();
  std::printf("  store: %s L0 payloads (+%s L1, +%s L2) across %d voxel "
              "groups, budget %s\n",
              format_bytes(static_cast<double>(store.payload_bytes_total())).c_str(),
              format_bytes(static_cast<double>(store.payload_bytes_tier(1))).c_str(),
              format_bytes(static_cast<double>(store.payload_bytes_tier(2))).c_str(),
              store.group_count(),
              format_bytes(static_cast<double>(ccfg.budget_bytes)).c_str());
  std::printf("  images bit-identical: %s (traced pass: %s)\n",
              identical ? "yes" : "NO", traced_identical ? "yes" : "NO");
  std::printf("  tracing: %zu events (%llu dropped), wall delta %+.2f "
              "ms/frame; enabled %.1f ns/event -> %.2f%% of frame, "
              "disabled %.2f ns/site -> %.3f%% (gates: <= 5%% enabled, "
              "<= 2%% disabled)\n",
              trace_events, static_cast<unsigned long long>(trace_dropped),
              traced_ms - ooc_ms, enabled_span_ns, enabled_pct,
              disabled_span_ns, disabled_pct);

  // --- LOD frontier (raw store: SH-band tiers carry the savings) -------------
  core::StreamingConfig rcfg = scfg;
  rcfg.use_vq = false;
  const auto scene_raw = core::StreamingScene::prepare(model, rcfg);
  try {
    if (!stream::AssetStore::write(store_path, scene_raw, wopts)) {
      std::fprintf(stderr, "FAILED to rewrite %s\n", store_path.c_str());
      return 1;
    }
  } catch (const stream::StreamException& e) {
    std::fprintf(stderr, "FAILED to rewrite store: %s\n", e.what());
    return 1;
  }
  stream::AssetStore raw_store(store_path);
  const auto resident_raw = core::render_sequence(scene_raw, cameras, seq);

  auto run_raw = [&](const stream::LodPolicy& lod) {
    stream::ResidencyCacheConfig rc;
    rc.budget_bytes = raw_store.decoded_bytes_total() * 35 / 100;
    stream::ResidencyCache rcache(raw_store, rc);
    stream::PrefetchConfig rp;
    rp.synchronous = true;  // reproducible fetch counters
    rp.lod = lod;
    stream::StreamingLoader rloader(rcache, rp);
    const auto sc = raw_store.make_scene();
    const auto out = core::render_sequence(sc, cameras, seq, &rloader);
    core::StreamCacheStats t;
    for (const auto& f : out.frames) t.accumulate(f.trace.cache);
    return std::make_pair(std::move(out), t);
  };

  stream::LodPolicy l0_policy;
  l0_policy.force_tier0 = true;
  const auto [raw_l0, raw_l0_stats] = run_raw(l0_policy);
  const auto [raw_lod, raw_lod_stats] = run_raw(stream::LodPolicy{});

  bool raw_identical = true;
  double psnr_min = 1e30, psnr_sum = 0.0;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    raw_identical = raw_identical && resident_raw.frames[f].image.pixels() ==
                                         raw_l0.frames[f].image.pixels();
    const double db = metrics::psnr_capped(resident_raw.frames[f].image,
                                           raw_lod.frames[f].image);
    psnr_min = std::min(psnr_min, db);
    psnr_sum += db;
  }
  const double psnr_mean = psnr_sum / static_cast<double>(cameras.size());
  const double savings =
      raw_l0_stats.bytes_fetched > 0
          ? 1.0 - static_cast<double>(raw_lod_stats.bytes_fetched) /
                      static_cast<double>(raw_l0_stats.bytes_fetched)
          : 0.0;

  bench::Table lod_table({"raw store pass", "fetched", "tier fetches L0/L1/L2",
                          "upgrades", "PSNR min/mean"});
  auto tier_fetches = [](const core::StreamCacheStats& s, int t) {
    return std::to_string(s.tier_misses[t] + s.tier_prefetches[t]);
  };
  lod_table.row({"forced L0",
                 format_bytes(static_cast<double>(raw_l0_stats.bytes_fetched)),
                 tier_fetches(raw_l0_stats, 0) + "/" +
                     tier_fetches(raw_l0_stats, 1) + "/" +
                     tier_fetches(raw_l0_stats, 2),
                 std::to_string(raw_l0_stats.upgrades), "exact"});
  lod_table.row({"default LodPolicy",
                 format_bytes(static_cast<double>(raw_lod_stats.bytes_fetched)),
                 tier_fetches(raw_lod_stats, 0) + "/" +
                     tier_fetches(raw_lod_stats, 1) + "/" +
                     tier_fetches(raw_lod_stats, 2),
                 std::to_string(raw_lod_stats.upgrades),
                 bench::fmt(psnr_min, 1) + "/" + bench::fmt(psnr_mean, 1) +
                     " dB"});
  lod_table.print();
  std::printf("  LOD frontier: %.1f%% fewer fetched bytes at %.1f dB min "
              "PSNR (gates: >= 30%% and >= 30 dB)\n",
              100.0 * savings, psnr_min);
  std::printf("  raw L0 pass bit-identical: %s\n", raw_identical ? "yes" : "NO");

  // --- zero-stall pass (coarse floor + zero fetch deadline) ------------------
  // The same walkthrough over a store whose coarsest tier is a
  // heavily-pruned fallback, with every group's floor payload pinned at
  // open (<= 5% of the scene's decoded bytes) and a zero per-frame demand
  // deadline: a group the prefetcher has not landed yet renders from the
  // floor instead of stalling the frame. The pass groups the scene at 2x
  // the voxel size — the floor pins at least one record per group, so the
  // 5% byte budget needs coarse-granularity groups, and a floor tier is a
  // per-group decision anyway — the multiplier grows until the floor
  // fits, since smaller --model_scale runs keep roughly as many groups
  // over far fewer records. Its cache budget is 65% of the decoded
  // scene, NOT the eviction-pressure 35% the passes above use: zero-stall
  // deadline streaming is the operating point where the steady-state
  // working set fits the budget and the floor only carries cold start and
  // bursts — under a budget smaller than the working set, deadline mode
  // trades the thrash into persistent quality loss instead of stalls,
  // which is a different (graceful-degradation) regime than the one this
  // gate pins. The per-frame prefetch cap is set just under the frame-0
  // working set so the cold start demonstrably serves its far tail from
  // the floor. Gates: not one frame with a demand miss; the floor fits
  // its 5% budget; frames that never fell back stay bit-identical to this
  // grouping's resident render; at least one frame falls back, and
  // fallback frames hold >= 28 dB.
  core::StreamingScene scene_zs;
  float zs_voxel_mult = 0.0f;
  for (const float mult : {2.0f, 3.0f, 4.0f, 6.0f, 8.0f}) {
    core::StreamingConfig zcfg = rcfg;
    zcfg.voxel_size = mult * scfg.voxel_size;
    auto candidate = core::StreamingScene::prepare(model, zcfg);
    try {
      if (!stream::AssetStore::write(
              store_path, candidate,
              stream::AssetStoreWriteOptions::with_coarse_floor(0.04f))) {
        std::fprintf(stderr, "FAILED to rewrite %s\n", store_path.c_str());
        return 1;
      }
    } catch (const stream::StreamException& e) {
      std::fprintf(stderr, "FAILED to rewrite store: %s\n", e.what());
      return 1;
    }
    // Cheap fit probe: a floor that would blow the 5% budget disables
    // itself at open, so open a throwaway cache and ask.
    stream::AssetStore probe(store_path);
    stream::ResidencyCacheConfig pc;
    pc.budget_bytes = probe.decoded_bytes_total();
    pc.coarse_floor_budget_bytes = probe.decoded_bytes_total() * 5 / 100;
    if (stream::ResidencyCache(probe, pc).coarse_floor_enabled()) {
      scene_zs = std::move(candidate);
      zs_voxel_mult = mult;
      break;
    }
  }
  if (zs_voxel_mult == 0.0f) {
    std::fprintf(stderr,
                 "zero-stall gate FAILED: no grouping fits a 5%% floor\n");
    return 1;
  }
  const auto resident_zs = core::render_sequence(scene_zs, cameras, seq);
  stream::AssetStore zs_store(store_path);
  stream::ResidencyCacheConfig zs_cfg;
  zs_cfg.budget_bytes = zs_store.decoded_bytes_total() * 65 / 100;
  zs_cfg.coarse_floor_budget_bytes = zs_store.decoded_bytes_total() * 5 / 100;
  stream::ResidencyCache zs_cache(zs_store, zs_cfg);
  const bool zs_floor_enabled = zs_cache.coarse_floor_enabled();
  stream::PrefetchConfig zs_pcfg;
  zs_pcfg.synchronous = true;  // reproducible fallback pattern
  zs_pcfg.lod.force_tier0 = true;
  zs_pcfg.fetch_deadline_ns = 0;  // every demand fetch is past due
  zs_pcfg.max_groups_per_frame = static_cast<std::size_t>(-1);
  // Cap the per-frame prefetch bandwidth just under the cold-start working
  // set (the L0 bytes of every group the loader ranks for camera 0, not the
  // whole store, most of which camera 0 never ranks) so frame 0 provably
  // serves its far tail from the floor.
  zs_pcfg.max_bytes_per_frame = std::numeric_limits<std::uint64_t>::max();
  stream::FrameIntent zs_intent0;
  zs_intent0.camera = &cameras[0];
  zs_intent0.motion_translation = seq.reuse_max_translation;
  zs_intent0.motion_rotation_rad = seq.reuse_max_rotation_rad;
  std::uint64_t zs_cold_bytes = 0;
  for (const stream::PrefetchRequest& r :
       stream::rank_prefetch_groups(zs_cache, zs_intent0, zs_pcfg)) {
    zs_cold_bytes += zs_store.tier_extent(r.id, r.tier).bytes;
  }
  zs_pcfg.max_bytes_per_frame = zs_cold_bytes * 99 / 100;
  stream::StreamingLoader zs_loader(zs_cache, zs_pcfg);
  const auto zs_scene = zs_store.make_scene();
  const auto zs = core::render_sequence(zs_scene, cameras, seq, &zs_loader);

  int zs_stall_frames = 0, fallback_frames = 0;
  bool zs_clean_identical = true;
  double min_fallback_psnr = 1e30;
  core::StreamCacheStats zs_total;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    const core::StreamCacheStats& cs = zs.frames[f].trace.cache;
    zs_total.accumulate(cs);
    if (cs.misses > 0) ++zs_stall_frames;
    if (cs.coarse_fallbacks > 0) {
      ++fallback_frames;
      min_fallback_psnr = std::min(
          min_fallback_psnr, metrics::psnr_capped(resident_zs.frames[f].image,
                                                  zs.frames[f].image));
    } else {
      zs_clean_identical =
          zs_clean_identical && resident_zs.frames[f].image.pixels() ==
                                    zs.frames[f].image.pixels();
    }
  }
  const double zs_floor_pct =
      100.0 * static_cast<double>(zs_cache.coarse_floor_bytes()) /
      static_cast<double>(zs_store.decoded_bytes_total());
  std::printf("  zero-stall (%.0fx voxel groups): %d stall frames, %d/%d "
              "fallback frames (%llu group serves), floor %s = %.2f%% of "
              "scene, min fallback PSNR %.1f dB (gates: 0 stalls, floor <= "
              "5%%, >= 28 dB)\n",
              zs_voxel_mult, zs_stall_frames, fallback_frames, frames,
              static_cast<unsigned long long>(zs_total.coarse_fallbacks),
              format_bytes(static_cast<double>(zs_cache.coarse_floor_bytes()))
                  .c_str(),
              zs_floor_pct,
              fallback_frames > 0 ? min_fallback_psnr : 0.0);
  std::printf("  zero-stall clean frames bit-identical: %s\n",
              zs_clean_identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"frames\": " << frames << ",\n"
       << "  \"resident_frame_ms\": " << resident_ms << ",\n"
       << "  \"ooc_frame_ms\": " << ooc_ms << ",\n"
       << "  \"hit_rate\": " << total.hit_rate() << ",\n"
       << "  \"hits\": " << total.hits << ",\n"
       << "  \"misses\": " << total.misses << ",\n"
       << "  \"prefetches\": " << total.prefetches << ",\n"
       << "  \"evictions\": " << total.evictions << ",\n"
       << "  \"bytes_fetched\": " << total.bytes_fetched << ",\n"
       << "  \"store_payload_bytes\": " << store.payload_bytes_total() << ",\n"
       << "  \"budget_bytes\": " << ccfg.budget_bytes << ",\n"
       << "  \"stall_frames\": " << stall_frames << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"lod_l0_bytes_fetched\": " << raw_l0_stats.bytes_fetched << ",\n"
       << "  \"lod_bytes_fetched\": " << raw_lod_stats.bytes_fetched << ",\n"
       << "  \"lod_fetch_savings\": " << savings << ",\n"
       << "  \"lod_psnr_min_db\": " << psnr_min << ",\n"
       << "  \"lod_psnr_mean_db\": " << psnr_mean << ",\n"
       << "  \"lod_upgrades\": " << raw_lod_stats.upgrades << ",\n"
       << "  \"lod_bit_identical\": " << (raw_identical ? "true" : "false")
       << ",\n"
       << "  \"traced_frame_ms\": " << traced_ms << ",\n"
       << "  \"trace_enabled_overhead_pct\": " << enabled_pct << ",\n"
       << "  \"trace_disabled_overhead_pct\": " << disabled_pct << ",\n"
       << "  \"trace_events\": " << trace_events << ",\n"
       << "  \"trace_dropped\": " << trace_dropped << ",\n"
       << "  \"enabled_span_ns\": " << enabled_span_ns << ",\n"
       << "  \"disabled_span_ns\": " << disabled_span_ns << ",\n"
       << "  \"trace_bit_identical\": "
       << (traced_identical ? "true" : "false") << ",\n"
       << "  \"zero_stall_frames\": " << zs_stall_frames << ",\n"
       << "  \"fallback_frames\": " << fallback_frames << ",\n"
       << "  \"coarse_fallbacks\": " << zs_total.coarse_fallbacks << ",\n"
       << "  \"min_fallback_psnr_db\": "
       << (fallback_frames > 0 ? min_fallback_psnr : 0.0) << ",\n"
       << "  \"coarse_floor_bytes\": " << zs_cache.coarse_floor_bytes() << ",\n"
       << "  \"coarse_floor_pct\": " << zs_floor_pct << ",\n"
       << "  \"zero_stall_clean_bit_identical\": "
       << (zs_clean_identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote %s\n", out_path.c_str());

  std::remove(store_path.c_str());
  const bool lod_ok = savings >= 0.30 && psnr_min >= 30.0;
  if (!lod_ok) {
    std::fprintf(stderr,
                 "LOD frontier gate FAILED: savings %.3f psnr_min %.2f\n",
                 savings, psnr_min);
  }
  // Observability overhead contract (per-event cost x traced event rate,
  // see the probe comment above).
  const bool trace_ok =
      traced_identical && enabled_pct <= 5.0 && disabled_pct <= 2.0;
  if (!trace_ok) {
    std::fprintf(stderr,
                 "tracing gate FAILED: bit_identical=%d enabled %.2f%% "
                 "disabled %.3f%%\n",
                 traced_identical ? 1 : 0, enabled_pct, disabled_pct);
  }
  // Zero-stall contract: the floor pins within its 5% budget, no frame
  // ever blocks on a demand miss, frames with no fallback stay exact, and
  // fallback frames keep a bounded quality loss. A pass in which no frame
  // fell back checked no quality bound at all, so it fails too.
  const bool zero_stall_ok =
      zs_floor_enabled && zs_floor_pct <= 5.0 && zs_stall_frames == 0 &&
      zs_clean_identical && fallback_frames > 0 && min_fallback_psnr >= 28.0;
  if (!zero_stall_ok) {
    std::fprintf(stderr,
                 "zero-stall gate FAILED: floor_enabled=%d floor_pct=%.2f "
                 "stall_frames=%d clean_identical=%d fallback_frames=%d "
                 "min_fallback_psnr=%.2f\n",
                 zs_floor_enabled ? 1 : 0, zs_floor_pct, zs_stall_frames,
                 zs_clean_identical ? 1 : 0, fallback_frames,
                 fallback_frames > 0 ? min_fallback_psnr : 0.0);
  }
  return (identical && raw_identical && lod_ok && trace_ok && zero_stall_ok)
             ? 0
             : 1;
}
