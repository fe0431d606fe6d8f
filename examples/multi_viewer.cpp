// Multi-viewer scene serving: N camera sessions, one shared cache.
//
// The ROADMAP's north star is serving many concurrent users from one
// memory budget. This example stands up a serve::SceneServer over a .sgsc
// asset store and drives several viewer sessions at once — each walking
// its own phase-shifted orbit of the same scene — on one shared
// ResidencyCache and one merged prefetch queue. It prints, per session,
// frame latency percentiles, the session-attributed hit rate, fetch
// traffic, and stall frames, and globally the shared-cache hit rate and
// how many prefetch requests the cross-session merge deduplicated.
//
// Each session carries its own LOD quality policy (--quality) over the
// same shared cache: a premium viewer can insist on exact L0 frames while
// a bandwidth-constrained one streams pruned tiers of the same groups.
// With --quality off a session's frames are bit-identical to rendering its
// path alone — sharing changes who pays which fetch, never a pixel;
// adaptive sessions trade that guarantee for the store's PSNR-bounded
// tiers (and may be served better-than-requested tiers a neighbor paid
// for).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "scene/presets.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/lod_policy.hpp"

namespace {

constexpr const char* kUsage = R"(multi_viewer — N viewer sessions over one shared residency cache

  --scene <name>      scene preset (default train)
  --sessions <n>      concurrent viewer sessions (default 4)
  --frames <n>        frames per session (default 6)
  --model_scale <f>   fraction of the full preset model (default 0.02)
  --res_scale <f>     fraction of the preset resolution (default 0.25)
  --arc <f>           fraction of the orbit each session walks (default 0.03)
  --spread <f>        orbit phase offset between sessions (default 0.01)
  --cache_mb <n>      shared cache budget in MiB (0 = 35% of the decoded
                      scene(s); with --scenes the budget is sharded across
                      scenes and rebalanced by demand)
  --store <path>      where to write the .sgsc store (default /tmp/multi_viewer.sgsc)
  --scenes <list>     comma-separated .sgsc store paths to host in ONE
                      server (multi-scene; sessions round-robin across the
                      scenes). Overrides --scene/--store; the stores must
                      already exist. Local file only (no --net_profile).
  --max_sessions <n>  admission cap on concurrently open sessions
                      (default 0 = unbounded). Opens beyond the cap are
                      rejected with a typed reason and counted; the example
                      reports how many viewers were turned away.
  --quality <list>    comma-separated per-session LOD policies, cycled
                      across sessions: off | quality | balanced | aggressive
                      (default balanced; "off" = bit-exact L0)
  --net_profile <name> serve the store over a deterministic simulated link
                      (fast | constrained | lossy) instead of the local
                      file; adaptive sessions then fold their own measured
                      bandwidth into tier selection (ABR), and the report
                      gains per-session link estimates and net traffic
                      (default "" = local file)
  --trace <path>      export a Chrome Trace Event JSON of all session
                      threads' frame/stage/cache spans (view in Perfetto)
  --force_scalar <bool> pin the per-Gaussian kernels to the scalar reference
                      path instead of the detected SIMD ISA (default false)
  --help              this text
)";

// "off,balanced,aggressive" -> one policy per session, cycling the list.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
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
  const int sessions = args.get_int("sessions", 4);
  const int frames = args.get_int("frames", 6);
  const float model_scale = static_cast<float>(args.get_double("model_scale", 0.02));
  const float res_scale = static_cast<float>(args.get_double("res_scale", 0.25));
  const float arc = static_cast<float>(args.get_double("arc", 0.03));
  const float spread = static_cast<float>(args.get_double("spread", 0.01));
  const int cache_mb = args.get_int("cache_mb", 0);
  const std::string store_path = args.get("store", "/tmp/multi_viewer.sgsc");
  const std::string net_profile = args.get("net_profile", "");
  const std::vector<std::string> scene_paths = split_csv(args.get("scenes", ""));
  const int max_sessions = args.get_int("max_sessions", 0);
  if (!scene_paths.empty() && !net_profile.empty()) {
    std::fprintf(stderr,
                 "--scenes hosts local stores only; drop --net_profile\n");
    return 1;
  }
  const std::vector<std::string> quality_names =
      split_csv(args.get("quality", "balanced"));
  if (quality_names.empty()) {
    std::fprintf(stderr, "--quality needs at least one policy name\n");
    return 1;
  }
  if (args.get_bool("force_scalar", false)) {
    simd::force_isa(simd::IsaLevel::kScalar);
  }
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    obs::set_thread_name("main");
    obs::set_trace_enabled(true);
  }

  const auto& info = scene::preset_info(preset);
  std::printf("== multi-viewer serve: '%s', %d sessions x %d frames ==\n",
              info.name.c_str(), sessions, frames);
  std::printf("kernel dispatch: %s (detected %s)\n",
              simd::isa_name(simd::active_isa()),
              simd::isa_name(simd::detect_isa()));

  int w = 0, h = 0;
  scene::scaled_resolution(preset, res_scale, w, h);
  core::StreamingConfig scfg;
  scfg.voxel_size = info.default_voxel_size;
  // One store per hosted scene. Without --scenes the example writes its own
  // single store from the preset; with --scenes it opens the given .sgsc
  // files and shards the shared budget across them.
  std::vector<std::unique_ptr<stream::AssetStore>> stores;
  std::shared_ptr<stream::SimulatedNetworkBackend> net;
  bool wrote_store = false;
  if (!scene_paths.empty()) {
    for (const std::string& path : scene_paths) {
      try {
        stores.push_back(std::make_unique<stream::AssetStore>(path));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot open scene store %s: %s\n", path.c_str(),
                     e.what());
        return 1;
      }
    }
  } else {
    const auto model = scene::make_preset_scene(preset, model_scale);
    const auto prepared = core::StreamingScene::prepare(model, scfg);
    stream::AssetStoreWriteOptions wopts;
    wopts.tier_count = 3;  // adaptive sessions need the pruned tiers on disk
    try {
      if (!stream::AssetStore::write(store_path, prepared, wopts)) {
        std::fprintf(stderr, "cannot write %s\n", store_path.c_str());
        return 1;
      }
    } catch (const stream::StreamException& e) {
      // IO failure (e.g. a full disk) is a typed throw since the writer
      // started verifying its stream; exit as gracefully as the bool path.
      std::fprintf(stderr, "cannot write store: %s\n", e.what());
      return 1;
    }
    wrote_store = true;
    if (net_profile.empty()) {
      stores.push_back(std::make_unique<stream::AssetStore>(store_path));
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
      auto opened = stream::AssetStore::open(net, &err);
      if (!opened) {
        std::fprintf(stderr, "cannot open store over '%s' link: %s\n",
                     net_profile.c_str(), err.to_string().c_str());
        return 1;
      }
      stores.push_back(std::move(opened));
    }
  }
  const std::uint32_t scene_count = static_cast<std::uint32_t>(stores.size());
  std::vector<const stream::AssetStore*> store_ptrs;
  std::uint64_t decoded_total = 0;
  for (const auto& s : stores) {
    store_ptrs.push_back(s.get());
    decoded_total += s->decoded_bytes_total();
  }

  serve::SceneServerConfig cfg;
  cfg.cache.budget_bytes = cache_mb > 0
                               ? static_cast<std::uint64_t>(cache_mb) << 20
                               : decoded_total * 35 / 100;
  cfg.max_sessions = max_sessions > 0 ? static_cast<std::size_t>(max_sessions)
                                      : 0;
  cfg.sequence.reuse_max_translation = 0.25f * scfg.voxel_size;
  cfg.sequence.reuse_max_rotation_rad = 0.04f;
  serve::SceneServer server(store_ptrs, cfg);
  // Per-session quality: cycle the --quality list across sessions. Over a
  // simulated link, adaptive sessions get the ABR term on a ~100 ms fetch
  // horizon: each folds the bandwidth IT measured into its own selection.
  // Sessions round-robin across hosted scenes. Opens go through the typed
  // admission path: with --max_sessions, viewers past the cap are turned
  // away (counted, never half-registered) and the fleet shrinks to the cap.
  std::vector<std::string> session_quality;
  std::vector<std::uint32_t> session_scene;
  std::size_t rejected_sessions = 0;
  for (int s = 0; s < sessions; ++s) {
    const std::string& name =
        quality_names[static_cast<std::size_t>(s) % quality_names.size()];
    stream::LodPolicy lod = stream::lod_policy_from_name(name);
    if (net != nullptr && !lod.force_tier0) {
      lod.abr_frame_budget_ns = 100'000'000;
    }
    const std::uint32_t scene = static_cast<std::uint32_t>(s) % scene_count;
    const serve::AdmissionResult adm = server.try_open_session(lod, scene);
    if (!adm.admitted) {
      ++rejected_sessions;
      continue;
    }
    session_quality.push_back(name);
    session_scene.push_back(scene);
  }
  const std::size_t admitted_sessions = session_quality.size();
  if (admitted_sessions == 0) {
    std::fprintf(stderr, "admission cap %d rejected every session\n",
                 max_sessions);
    return 1;
  }
  for (std::uint32_t k = 0; k < scene_count; ++k) {
    const stream::AssetStore& st = *store_ptrs[k];
    std::printf("scene %u: %s L0 payloads in %d voxel groups (shard budget "
                "%s)\n",
                k,
                format_bytes(static_cast<double>(st.payload_bytes_total()))
                    .c_str(),
                st.group_count(),
                format_bytes(static_cast<double>(server.shard_budgets()[k]))
                    .c_str());
  }
  std::printf("shared budget %s across %u scene%s%s%s",
              format_bytes(static_cast<double>(cfg.cache.budget_bytes)).c_str(),
              scene_count, scene_count == 1 ? "" : "s",
              net != nullptr ? "; link " : "",
              net != nullptr ? net_profile.c_str() : "");
  if (rejected_sessions > 0) {
    std::printf("; admission cap %d turned away %zu viewer%s", max_sessions,
                rejected_sessions, rejected_sessions == 1 ? "" : "s");
  }
  std::printf("\n\n");

  // Phase-shifted orbits: overlapping working sets, the serving sweet spot.
  std::vector<std::vector<gs::Camera>> paths(admitted_sessions);
  for (std::size_t s = 0; s < admitted_sessions; ++s) {
    for (int f = 0; f < frames; ++f) {
      const float t = spread * static_cast<float>(s) +
                      arc * static_cast<float>(f) / static_cast<float>(frames);
      paths[s].push_back(scene::make_preset_camera(preset, w, h, t));
    }
  }

  const auto result = server.run(paths);
  const serve::ServerReport& rep = result.report;

  std::printf("%8s %s%-10s %8s %8s %8s %9s %10s %7s %12s %14s %9s%s\n",
              "session", scene_count > 1 ? "scene " : "", "quality", "p50 ms",
              "p95 ms", "p99 ms", "hit rate", "fetched", "stalls", "plans b/r",
              "tiers 0/1/2", "degraded", net != nullptr ? " est MB/s" : "");
  for (std::size_t s = 0; s < rep.sessions.size(); ++s) {
    const serve::SessionReport& sr = rep.sessions[s];
    std::printf("%8zu ", s);
    if (scene_count > 1) std::printf("%5u ", sr.scene);
    std::printf("%-10s %8.1f %8.1f %8.1f %8.1f%% %10s %7zu %7zu/%zu "
                "%5llu/%llu/%llu %9zu",
                session_quality[s].c_str(), sr.p50_ms, sr.p95_ms, sr.p99_ms,
                100.0 * sr.cache.hit_rate(),
                format_bytes(static_cast<double>(sr.cache.bytes_fetched))
                    .c_str(),
                sr.stall_frames, sr.plans_built, sr.plans_reused,
                static_cast<unsigned long long>(sr.tier_requests[0]),
                static_cast<unsigned long long>(sr.tier_requests[1]),
                static_cast<unsigned long long>(sr.tier_requests[2]),
                sr.degraded_frames);
    if (net != nullptr) {
      std::printf(" %9.2f", sr.estimated_bandwidth_bps / 1e6);
    }
    std::printf("\n");
  }
  std::printf(
      "\nglobal: %.1f%% hit rate, %s fetched, %llu evictions, "
      "%llu prefetch requests merged across sessions\n",
      100.0 * rep.global_hit_rate,
      format_bytes(static_cast<double>(rep.shared_cache.bytes_fetched)).c_str(),
      static_cast<unsigned long long>(rep.shared_cache.evictions),
      static_cast<unsigned long long>(rep.merged_prefetch_requests));
  std::printf(
      "fleet latency: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, %zu stall "
      "frames\n",
      rep.p50_ms, rep.p95_ms, rep.p99_ms, rep.stall_frames);
  std::printf(
      "scheduler: fairness %.3f across %zu sessions, queue wait p50 %.2f ms / "
      "p99 %.2f ms, %llu admission rejects\n",
      rep.fairness_index, rep.sessions.size(), rep.queue_wait_p50_ms,
      rep.queue_wait_p99_ms,
      static_cast<unsigned long long>(rep.admission_rejects));
  if (net != nullptr) {
    const stream::FetchBackendStats nstats = net->stats();
    std::printf("network (%s): %llu transfers, %s on the wire, %llu "
                "timeouts, %.1f ms simulated wire time, %llu ABR "
                "demotions across sessions\n",
                net_profile.c_str(),
                static_cast<unsigned long long>(nstats.requests),
                format_bytes(static_cast<double>(nstats.bytes)).c_str(),
                static_cast<unsigned long long>(nstats.timeouts),
                static_cast<double>(net->now_ns()) * 1e-6,
                static_cast<unsigned long long>(
                    rep.shared_cache.abr_demotions));
  }
  // Fault isolation: any errors below were absorbed per group, per session
  // — every session above still completed all its frames.
  if (rep.shared_cache.fetch_errors > 0 ||
      rep.shared_cache.degraded_groups > 0 || rep.async_lane_errors > 0) {
    std::printf("faults: %llu fetch errors, %llu degraded serves, "
                "%llu failed groups, %llu async-lane errors",
                static_cast<unsigned long long>(rep.shared_cache.fetch_errors),
                static_cast<unsigned long long>(
                    rep.shared_cache.degraded_groups),
                static_cast<unsigned long long>(rep.shared_cache.failed_groups),
                static_cast<unsigned long long>(rep.async_lane_errors));
    std::printf(" | per-session error frames:");
    for (std::size_t s = 0; s < rep.sessions.size(); ++s) {
      std::printf(" %zu", rep.sessions[s].error_frames);
    }
    std::printf("\n");
  }

  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("\ntrace: %s (%llu dropped events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(obs::trace_dropped_total()));
  }

  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s (try --help)\n",
                 flag.c_str());
  }
  if (wrote_store) std::remove(store_path.c_str());
  return 0;
}
