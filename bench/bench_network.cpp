// Network streaming benchmark (and CI smoke test): the PSNR-vs-bandwidth
// frontier of the ABR loop over simulated links.
//
// Passes over one walkthrough trajectory:
//   resident      — the prepared scene fully in memory (reference pixels)
//   local file    — tiered VQ store through LocalFileBackend, L0-forced,
//                   synchronous: must be bit-identical to resident
//   perfect net   — the SAME configuration through a SimulatedNetworkBackend
//                   with the default (perfect) NetProfile: must be
//                   bit-identical to the local pass — the network seam adds
//                   transfers, never pixels (exits non-zero otherwise)
//   frontier      — a raw coarse-floor store streamed over the three named
//                   link presets (lossy -> constrained -> fast) with the
//                   ABR term live (abr_frame_budget_ns) and a zero demand
//                   deadline: each pass reports PSNR vs the resident
//                   render, ABR demotions, net traffic, and the loader's
//                   converged link estimate.
//
// Gates (non-zero exit on failure):
//   - local pass bit-identical to resident; perfect-net pass bit-identical
//     to the local pass
//   - mean PSNR is non-decreasing along lossy -> constrained -> fast (the
//     frontier is monotone in link quality)
//   - zero stall frames at "constrained": a clean link plus the coarse
//     floor and zero deadline must never block a frame on the network
//     (the lossy link may legitimately stall — a lost floor-pin transfer
//     leaves a hole whose acquires take the blocking path — so it is
//     reported, not gated)
//   - ABR demoted at least once on both bandwidth-limited links (lossy,
//     constrained): the estimator really drove tier selection
//
// Emits BENCH_network.json (flat key/value) for trend tracking; see
// docs/BENCHMARKS.md for the schema and how CI consumes it.
//
// Flags: see kUsage below (`--help` prints it).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "scene/presets.hpp"
#include "stream/asset_store.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace {

constexpr const char* kUsage = R"(bench_network — ABR over simulated links: bit-exactness and PSNR frontier

  --scene <name>     scene preset (default train)
  --frames <n>       walkthrough frames (default 8)
  --model_scale <f>  fraction of the preset model (default 0.02)
  --res_scale <f>    fraction of the preset resolution (default 0.25)
  --arc <f>          orbit fraction the walkthrough covers (default 0.03)
  --out <path>       JSON output (default BENCH_network.json)
  --help             this text

Gates (exit non-zero on failure): local and perfect-link passes
bit-identical, PSNR monotone along lossy -> constrained -> fast, zero
stall frames on the constrained link, ABR demotions on both limited links.
Unknown flags exit 2.
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

// One frontier pass's outcome.
struct NetPass {
  std::string profile;
  double psnr_min_db = 0.0;
  double psnr_mean_db = 0.0;
  int stall_frames = 0;
  int fallback_frames = 0;
  std::uint64_t abr_demotions = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_stall_ns = 0;
  std::uint64_t fetch_errors = 0;
  std::uint64_t link_requests = 0;
  std::uint64_t link_timeouts = 0;
  double estimated_bw_mbps = 0.0;
};

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
  const float model_scale =
      static_cast<float>(args.get_double("model_scale", 0.02));
  const float res_scale =
      static_cast<float>(args.get_double("res_scale", 0.25));
  const float arc = static_cast<float>(args.get_double("arc", 0.03));
  const std::string out_path = args.get("out", "BENCH_network.json");
  if (bench::reject_unknown_flags(args)) return 2;
  const std::string store_path = "/tmp/bench_network.sgsc";

  bench::print_header("network streaming: ABR over simulated links",
                      "bit-identical over a perfect link, PSNR frontier "
                      "monotone in bandwidth");
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

  // --- resident reference ----------------------------------------------------
  const auto resident = core::render_sequence(scene_resident, cameras, seq);

  // --- local file vs perfect net: the bit-exactness gate ---------------------
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

  // Synchronous + L0-forced on both sides: the fetch schedule is a pure
  // function of the trajectory, so the two passes issue identical request
  // sequences and the only variable is the transport.
  auto run_golden = [&](const std::shared_ptr<stream::FetchBackend>& backend) {
    stream::StreamError err;
    std::unique_ptr<stream::AssetStore> store =
        backend ? stream::AssetStore::open(backend, &err)
                : stream::AssetStore::open(store_path, &err);
    if (!store) {
      std::fprintf(stderr, "FAILED to open store: %s\n",
                   err.to_string().c_str());
      std::exit(1);
    }
    stream::ResidencyCacheConfig cc;
    cc.budget_bytes = store->decoded_bytes_total() * 35 / 100;
    stream::ResidencyCache cache(*store, cc);
    stream::PrefetchConfig pc;
    pc.synchronous = true;
    pc.lod.force_tier0 = true;
    stream::StreamingLoader loader(cache, pc);
    const auto sc = store->make_scene();
    return core::render_sequence(sc, cameras, seq, &loader);
  };

  const auto local = run_golden(nullptr);
  auto perfect = std::make_shared<stream::SimulatedNetworkBackend>(
      std::make_shared<stream::LocalFileBackend>(store_path),
      stream::NetProfile{});
  const auto netgold = run_golden(perfect);

  bool local_identical = local.frames.size() == resident.frames.size();
  for (std::size_t f = 0; f < local.frames.size() && local_identical; ++f) {
    local_identical =
        resident.frames[f].image.pixels() == local.frames[f].image.pixels();
  }
  bool net_identical = netgold.frames.size() == local.frames.size();
  for (std::size_t f = 0; f < netgold.frames.size() && net_identical; ++f) {
    net_identical =
        local.frames[f].image.pixels() == netgold.frames[f].image.pixels();
  }
  std::printf("  local pass bit-identical to resident: %s\n",
              local_identical ? "yes" : "NO");
  std::printf("  perfect-net pass bit-identical to local (%llu requests, "
              "%s over the seam): %s\n",
              static_cast<unsigned long long>(perfect->stats().requests),
              format_bytes(static_cast<double>(perfect->stats().bytes)).c_str(),
              net_identical ? "yes" : "NO");

  // --- PSNR-vs-bandwidth frontier --------------------------------------------
  // Raw store with the default SH-band tier ladder (L2 keeps every record
  // at DC only), whose coarsest tier doubles as the always-resident floor:
  // the zero demand deadline turns a late fetch into a bounded-quality
  // L2 serve instead of a stall, which is how the constrained link
  // sustains its zero-stall gate — and the quality each link recovers
  // ABOVE that common floor is exactly what the frontier measures.
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
  const auto resident_raw = core::render_sequence(scene_raw, cameras, seq);

  const std::vector<std::string> profiles = {"lossy", "constrained", "fast"};
  std::vector<NetPass> passes;
  for (const std::string& name : profiles) {
    auto net = std::make_shared<stream::SimulatedNetworkBackend>(
        std::make_shared<stream::LocalFileBackend>(store_path),
        stream::NetProfile::from_name(name));
    stream::StreamError err;
    const auto store = stream::AssetStore::open(net, &err);
    if (!store) {
      std::fprintf(stderr, "FAILED to open %s store: %s\n", name.c_str(),
                   err.to_string().c_str());
      return 1;
    }
    stream::ResidencyCacheConfig cc;
    cc.budget_bytes = store->decoded_bytes_total() * 35 / 100;
    cc.coarse_floor_budget_bytes = store->decoded_bytes_total();
    stream::ResidencyCache cache(*store, cc);
    stream::PrefetchConfig pc;
    pc.synchronous = true;        // deterministic request order on the link
    pc.fetch_deadline_ns = 0;     // never block a frame on a demand fetch
    // The measured link is the binding prefetch constraint: no group-count
    // cap, and the static byte cap is only a conservative cold-start
    // budget for the first frames (the ABR term has no estimate yet).
    // From the first transfer on, the ABR cap (estimate x horizon x
    // safety) decides what each pass streams — exactly what its link
    // sustains.
    pc.max_groups_per_frame = static_cast<std::size_t>(-1);
    pc.max_bytes_per_frame = 256 << 10;
    pc.lod.abr_frame_budget_ns = 100'000'000;  // ~100 ms fetch horizon
    stream::StreamingLoader loader(cache, pc);
    const auto sc = store->make_scene();
    const auto out = core::render_sequence(sc, cameras, seq, &loader);

    NetPass p;
    p.profile = name;
    double psnr_min = 1e30, psnr_sum = 0.0;
    for (std::size_t f = 0; f < cameras.size(); ++f) {
      const double db = metrics::psnr_capped(resident_raw.frames[f].image,
                                             out.frames[f].image);
      psnr_min = std::min(psnr_min, db);
      psnr_sum += db;
      const core::StreamCacheStats& cs = out.frames[f].trace.cache;
      if (cs.misses > 0) ++p.stall_frames;
      if (cs.coarse_fallbacks > 0) ++p.fallback_frames;
    }
    p.psnr_min_db = psnr_min;
    p.psnr_mean_db = psnr_sum / static_cast<double>(cameras.size());
    const core::StreamCacheStats s = loader.stats();
    p.abr_demotions = s.abr_demotions;
    p.net_bytes = s.net_bytes;
    p.net_stall_ns = s.net_stall_ns;
    p.fetch_errors = s.fetch_errors;
    p.link_requests = net->stats().requests;
    p.link_timeouts = net->stats().timeouts;
    p.estimated_bw_mbps =
        loader.estimator().bandwidth_bytes_per_sec() / 1e6;
    passes.push_back(p);
  }

  bench::Table table({"link", "PSNR min/mean", "stall frames",
                      "floor frames", "ABR demotions", "net fetched",
                      "timeouts", "est. MB/s"});
  for (const NetPass& p : passes) {
    table.row({p.profile,
               bench::fmt(p.psnr_min_db, 1) + "/" +
                   bench::fmt(p.psnr_mean_db, 1) + " dB",
               std::to_string(p.stall_frames), std::to_string(p.fallback_frames),
               std::to_string(p.abr_demotions),
               format_bytes(static_cast<double>(p.net_bytes)),
               std::to_string(p.link_timeouts),
               bench::fmt(p.estimated_bw_mbps, 1)});
  }
  table.print();

  // --- gates -----------------------------------------------------------------
  bool frontier_monotone = true;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    // A faster link must never render worse (0.05 dB slack absorbs PSNR
    // cap rounding when both passes are essentially exact).
    if (passes[i].psnr_mean_db < passes[i - 1].psnr_mean_db - 0.05) {
      frontier_monotone = false;
    }
  }
  const NetPass& constrained = passes[1];
  const bool zero_stall_constrained = constrained.stall_frames == 0;
  const bool abr_engaged =
      passes[0].abr_demotions > 0 && passes[1].abr_demotions > 0;
  std::printf("  frontier monotone (lossy -> constrained -> fast): %s\n",
              frontier_monotone ? "yes" : "NO");
  std::printf("  zero stalls at constrained: %s (%d stall frames)\n",
              zero_stall_constrained ? "yes" : "NO",
              constrained.stall_frames);
  std::printf("  ABR engaged on bandwidth-limited links: %s\n",
              abr_engaged ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"frames\": " << frames << ",\n"
       << "  \"local_bit_identical\": "
       << (local_identical ? "true" : "false") << ",\n"
       << "  \"net_bit_identical\": " << (net_identical ? "true" : "false")
       << ",\n"
       << "  \"net_requests\": " << perfect->stats().requests << ",\n"
       << "  \"net_seam_bytes\": " << perfect->stats().bytes << ",\n"
       << "  \"frontier_monotone\": "
       << (frontier_monotone ? "true" : "false") << ",\n"
       << "  \"abr_engaged\": " << (abr_engaged ? "true" : "false");
  for (const NetPass& p : passes) {
    json << ",\n"
         << "  \"net_" << p.profile << "_psnr_min_db\": " << p.psnr_min_db
         << ",\n"
         << "  \"net_" << p.profile << "_psnr_mean_db\": " << p.psnr_mean_db
         << ",\n"
         << "  \"net_" << p.profile << "_stall_frames\": " << p.stall_frames
         << ",\n"
         << "  \"net_" << p.profile
         << "_fallback_frames\": " << p.fallback_frames << ",\n"
         << "  \"net_" << p.profile << "_abr_demotions\": " << p.abr_demotions
         << ",\n"
         << "  \"net_" << p.profile << "_bytes\": " << p.net_bytes << ",\n"
         << "  \"net_" << p.profile << "_stall_ns\": " << p.net_stall_ns
         << ",\n"
         << "  \"net_" << p.profile << "_fetch_errors\": " << p.fetch_errors
         << ",\n"
         << "  \"net_" << p.profile << "_timeouts\": " << p.link_timeouts
         << ",\n"
         << "  \"net_" << p.profile
         << "_estimated_bw_mbps\": " << p.estimated_bw_mbps;
  }
  json << "\n}\n";
  std::printf("  wrote %s\n", out_path.c_str());

  std::remove(store_path.c_str());
  bool ok = true;
  if (!local_identical || !net_identical) {
    std::fprintf(stderr, "network golden gate FAILED: local %s, net %s\n",
                 local_identical ? "ok" : "MISMATCH",
                 net_identical ? "ok" : "MISMATCH");
    ok = false;
  }
  if (!frontier_monotone) {
    std::fprintf(stderr, "frontier gate FAILED: mean PSNR not monotone\n");
    ok = false;
  }
  if (!zero_stall_constrained) {
    std::fprintf(stderr, "zero-stall gate FAILED: %d stall frames at "
                 "constrained\n", constrained.stall_frames);
    ok = false;
  }
  if (!abr_engaged) {
    std::fprintf(stderr, "ABR gate FAILED: no demotions on a "
                 "bandwidth-limited link\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
