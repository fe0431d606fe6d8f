#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/parallel.hpp"
#include "core/render_sequence.hpp"
#include "metrics/psnr.hpp"
#include "obs/trace.hpp"
#include "scene/presets.hpp"
#include "sim/streaminggs_sim.hpp"

namespace ledger {

using namespace sgs;

namespace {

// Every workload renders the train preset at the same small scale.
constexpr scene::ScenePreset kPreset = scene::ScenePreset::kTrain;
constexpr float kModelScale = 0.02f;
constexpr float kResScale = 0.25f;

// Orbit phase per frame before jitter (1.0 = one full orbit): slow enough
// that a plan is reused for about ten frames.
constexpr float kCreepStep = 1.0f / 2000.0f;

constexpr int kFleetSessions = 16;
constexpr int kFleetDrivers = 4;
// Frames each session renders per SceneServer::run call; the timed loop
// checks its clock between calls.
constexpr int kFleetChunk = 10;
constexpr int kPsnrEvery = 10;

struct FrameSize {
  int w = 0;
  int h = 0;
};

FrameSize frame_size() {
  FrameSize s;
  scene::scaled_resolution(kPreset, kResScale, s.w, s.h);
  return s;
}

float base_voxel() { return scene::preset_info(kPreset).default_voxel_size; }

core::SequenceOptions sequence_options(bool stage_timing) {
  core::SequenceOptions seq;
  seq.reuse_max_translation = 0.25f * base_voxel();
  seq.reuse_max_rotation_rad = 0.04f;
  seq.render.collect_stage_timing = stage_timing;
  return seq;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// 64-bit FNV-1a over the image's float bytes, eight at a time: equal
// hashes stand in for bit-identical frames.
std::uint64_t image_hash(const Image& img) {
  const auto& px = img.pixels();
  const auto* bytes = reinterpret_cast<const unsigned char*>(px.data());
  const std::size_t n = px.size() * sizeof(px[0]);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0x100000001b3ULL;
  }
  for (; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  return h;
}

std::unique_ptr<stream::AssetStore> open_store(
    std::shared_ptr<stream::FetchBackend> backend) {
  stream::StreamError err;
  auto store = stream::AssetStore::open(std::move(backend), &err);
  if (!store) throw std::runtime_error("store open: " + err.to_string());
  return store;
}

Stream open_stream(Workload w, const std::string& path, std::uint64_t seed,
                   bool probed) {
  Stream s;
  std::shared_ptr<stream::FetchBackend> backend =
      std::make_shared<stream::LocalFileBackend>(path);
  if (w == Workload::kLodLink) {
    stream::NetProfile profile = stream::NetProfile::from_name("constrained");
    profile.seed = static_cast<std::uint32_t>(mix_seed(seed, 0x11e));
    s.link = std::make_shared<stream::SimulatedNetworkBackend>(backend, profile);
    backend = s.link;
  }
  if (probed) {
    s.probe = std::make_shared<TimedBackend>(backend);
    backend = s.probe;
  }
  s.store = open_store(backend);
  s.scene = s.store->make_scene();

  stream::ResidencyCacheConfig cc;
  // 35% of the decoded scene: smaller than the working set, so frames
  // evict and refetch.
  cc.budget_bytes = s.store->decoded_bytes_total() * 35 / 100;
  stream::PrefetchConfig pc;
  if (w == Workload::kOocL0) {
    pc.lod.force_tier0 = true;  // async prefetch, bit-exact output
  } else {
    // The bench_network frontier setting: the floor may hold the whole
    // coarse tier, a zero deadline serves every late group from it, the
    // ABR term sizes prefetch to the measured link, and prefetch runs
    // synchronously inside begin_frame.
    cc.coarse_floor_budget_bytes = s.store->decoded_bytes_total();
    pc.synchronous = true;
    pc.fetch_deadline_ns = 0;
    pc.max_groups_per_frame = static_cast<std::size_t>(-1);
    pc.max_bytes_per_frame = 256 << 10;
    pc.lod.abr_frame_budget_ns = 100'000'000;
  }
  s.cache = std::make_unique<stream::ResidencyCache>(*s.store, cc);
  s.loader = std::make_unique<stream::StreamingLoader>(*s.cache, pc);
  return s;
}

Fleet open_fleet(const std::vector<std::string>& paths, bool probed) {
  Fleet f;
  std::uint64_t decoded = 0;
  for (const std::string& path : paths) {
    std::shared_ptr<stream::FetchBackend> backend =
        std::make_shared<stream::LocalFileBackend>(path);
    if (probed) {
      f.probes.push_back(std::make_shared<TimedBackend>(backend));
      backend = f.probes.back();
    }
    f.stores.push_back(open_store(backend));
    decoded += f.stores.back()->decoded_bytes_total();
  }
  serve::SceneServerConfig cfg;
  cfg.cache.budget_bytes = decoded / 2;
  cfg.sequence = sequence_options(probed);
  cfg.lod.force_tier0 = true;
  cfg.prefetch.lod.force_tier0 = true;
  cfg.max_concurrent_frames = kFleetDrivers;
  std::vector<const stream::AssetStore*> ptrs;
  for (const auto& s : f.stores) ptrs.push_back(s.get());
  f.server = std::make_unique<serve::SceneServer>(ptrs, cfg);
  for (int s = 0; s < kFleetSessions; ++s) {
    f.server->open_session(cfg.lod,
                           static_cast<std::uint32_t>(s) % paths.size());
  }
  return f;
}

// Path seed of fleet session s (single viewers use session 0).
std::uint64_t session_seed(std::uint64_t seed, int session) {
  return mix_seed(seed, static_cast<std::uint64_t>(session) + 1);
}

// Per-frame bookkeeping shared by both pass shapes. Nothing here runs
// inside the timed window.
class Recorder {
 public:
  Recorder(const Fixture& fx, const PassOptions& o, int checked_sessions)
      : fx_(fx), o_(o) {
    rec_.hashes.resize(static_cast<std::size_t>(checked_sessions));
  }

  // `session_frame` is the frame's index on its own session's path.
  void add(const core::StreamingRenderResult& r, const gs::Camera& cam,
           int session, std::size_t session_frame) {
    const core::StreamingTrace& t = r.trace;
    ++rec_.frames;
    rec_.frame_ns.push_back(r.frame_wall_ns);
    if (t.cache.misses > 0) ++rec_.stall_frames;
    if (t.cache.coarse_fallbacks > 0) ++rec_.fallback_frames;
    if (t.cache.fetch_errors > 0 || t.cache.degraded_groups > 0) {
      ++rec_.error_frames;
    }
    if (t.plan_reused) ++rec_.plans_reused;
    rec_.cache.accumulate(t.cache);
    rec_.stages.accumulate(t.total_stage_ns());
    rec_.residents += t.total_residents();
    rec_.fine_pass += t.total_fine_pass();
    rec_.dram_bytes += t.total_dram_bytes();

    if (session < static_cast<int>(rec_.hashes.size()) &&
        session_frame < static_cast<std::size_t>(o_.hash_frames)) {
      rec_.hashes[static_cast<std::size_t>(session)].push_back(
          image_hash(r.image));
      rec_.prefix_dram_bytes += t.total_dram_bytes();
      if (!t.plan_reused) ++rec_.prefix_plans_built;
    }
    if (session_frame % kPsnrEvery == 0) {
      // Quality against a fresh full-fidelity resident render of the same
      // camera: LOD, floor fallbacks, and plan reuse all count as loss.
      const std::size_t scene_index =
          static_cast<std::size_t>(session) % fx_.resident.size();
      const auto ref = core::render_streaming(fx_.resident[scene_index], cam);
      rec_.psnr_sum_db += metrics::psnr_capped(ref.image, r.image);
      ++rec_.psnr_samples;
    }
    if (o_.simulate) {
      const std::uint64_t t0 = core::stage_clock_ns();
      const sim::SimReport rep = sim::simulate_streaminggs(t);
      rec_.sim_host_ns += core::stage_clock_ns() - t0;
      rec_.sim_seconds += rep.seconds;
      rec_.sim_dram_bytes += static_cast<double>(rep.dram_bytes);
      rec_.sim_energy_mj += rep.energy_mj();
    }
  }

  PassRecord& record() { return rec_; }

 private:
  const Fixture& fx_;
  const PassOptions& o_;
  PassRecord rec_;
};

PassRecord run_single(Fixture& fx, const PassOptions& o) {
  Stream fresh;
  Stream* st = fx.stream.store ? &fx.stream : nullptr;
  if (st != nullptr && o.traced) {
    fresh = open_stream(fx.workload, fx.store_paths[0], fx.seed, true);
    st = &fresh;
  }
  if (st != nullptr && st->probe) st->probe->reset();

  // The resident source stays null: a non-null source changes the path.
  stream::GroupSource* source = st != nullptr ? st->loader.get() : nullptr;
  std::optional<TimedSource> timed;
  if (source != nullptr && o.traced) {
    timed.emplace(*source);
    source = &*timed;
  }
  const core::StreamingScene& scene =
      st != nullptr ? st->scene : fx.resident[0];
  core::SequenceRenderer renderer(scene, sequence_options(o.traced), source);
  CameraPath path(session_seed(fx.seed, 0));
  Recorder recorder(fx, o, 1);

  const std::uint64_t pool0 = pool_submit_wait_ns();
  const std::uint64_t link0 = st != nullptr && st->link ? st->link->now_ns() : 0;
  const double budget_ns = o.seconds * 1e9;
  std::uint64_t timed_ns = 0;
  for (std::size_t f = 0;
       o.seconds > 0.0 ? static_cast<double>(timed_ns) < budget_ns
                       : f < static_cast<std::size_t>(o.frames);
       ++f) {
    const gs::Camera cam = path.next();
    const std::uint64_t t0 = core::stage_clock_ns();
    core::StreamingRenderResult r;
    {
      SGS_TRACE_SPAN("ledger", "render", "frame", f);
      r = renderer.render(cam);
    }
    timed_ns += core::stage_clock_ns() - t0;
    recorder.add(r, cam, 0, f);
  }
  if (st != nullptr) st->loader->wait_idle();

  PassRecord& rec = recorder.record();
  rec.timed_s = static_cast<double>(timed_ns) * 1e-9;
  rec.pool_wait_ns = pool_submit_wait_ns() - pool0;
  if (st != nullptr) {
    if (st->link) rec.link_ns = st->link->now_ns() - link0;
    rec.prefetch_expired = st->loader->queue().expired();
    if (st->probe) {
      rec.read_range_ns = st->probe->calls().snapshot();
      rec.read_bytes = st->probe->bytes();
    }
  }
  if (timed) {
    rec.acquire_ns = timed->acquires().snapshot();
    rec.begin_frame_ns = timed->begin_frames().snapshot();
  }
  return std::move(rec);
}

PassRecord run_fleet(Fixture& fx, const PassOptions& o) {
  Fleet fresh;
  Fleet* fl = &fx.fleet;
  if (o.traced) {
    fresh = open_fleet(fx.store_paths, true);
    fl = &fresh;
  }
  for (const auto& p : fl->probes) p->reset();

  std::vector<CameraPath> paths;
  for (int s = 0; s < kFleetSessions; ++s) {
    paths.emplace_back(session_seed(fx.seed, s));
  }
  Recorder recorder(fx, o, 2);
  const std::uint64_t pool0 = pool_submit_wait_ns();
  const double budget_ns = o.seconds * 1e9;
  std::uint64_t timed_ns = 0;
  std::size_t per_session = 0;
  while (o.seconds > 0.0 ? static_cast<double>(timed_ns) < budget_ns
                         : per_session < static_cast<std::size_t>(o.frames)) {
    const std::size_t n =
        o.seconds > 0.0
            ? kFleetChunk
            : std::min<std::size_t>(kFleetChunk,
                                    static_cast<std::size_t>(o.frames) -
                                        per_session);
    std::vector<std::vector<gs::Camera>> chunk(kFleetSessions);
    for (int s = 0; s < kFleetSessions; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        chunk[static_cast<std::size_t>(s)].push_back(
            paths[static_cast<std::size_t>(s)].next());
      }
    }
    const std::uint64_t t0 = core::stage_clock_ns();
    serve::ServerRunResult res;
    {
      SGS_TRACE_SPAN("ledger", "fleet_run", "frames_per_session", n);
      res = fl->server->run(chunk);
    }
    timed_ns += core::stage_clock_ns() - t0;
    for (int s = 0; s < kFleetSessions; ++s) {
      const auto si = static_cast<std::size_t>(s);
      for (std::size_t i = 0; i < n; ++i) {
        recorder.add(res.sessions[si][i], chunk[si][i], s, per_session + i);
      }
    }
    per_session += n;
  }

  PassRecord& rec = recorder.record();
  rec.timed_s = static_cast<double>(timed_ns) * 1e-9;
  rec.pool_wait_ns = pool_submit_wait_ns() - pool0;
  const serve::ServerReport rep = fl->server->report();
  // Session-attributed frame deltas carry no evictions; the shards do.
  rec.cache.evictions = rep.shared_cache.evictions;
  rec.fairness = rep.fairness_index;
  rec.queue_wait_p50_ms = rep.queue_wait_p50_ms;
  rec.queue_wait_p99_ms = rep.queue_wait_p99_ms;
  rec.merged_prefetch = rep.merged_prefetch_requests;
  for (const auto& p : fl->probes) {
    rec.read_range_ns.merge(p->calls().snapshot());
    rec.read_bytes += p->bytes();
  }
  return std::move(rec);
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kResident:
      return "resident";
    case Workload::kOocL0:
      return "ooc_l0";
    case Workload::kLodLink:
      return "lod_link";
    case Workload::kServeFleet:
      return "serve_fleet";
  }
  return "?";
}

std::optional<Workload> workload_from_name(const std::string& name) {
  for (Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).next_u64();
}

CameraPath::CameraPath(std::uint64_t seed) : rng_(seed) {
  start_ = rng_.uniform();
  phase_ = start_;
  until_turn_ = 80 + static_cast<int>(rng_.uniform_index(81));
}

gs::Camera CameraPath::next() {
  static const FrameSize size = frame_size();
  std::uint32_t bits = 0;
  std::memcpy(&bits, &phase_, sizeof(bits));
  hash_ = (hash_ ^ bits) * 0x100000001b3ULL;
  const gs::Camera cam =
      scene::make_preset_camera(kPreset, size.w, size.h, phase_);
  if (--until_turn_ <= 0) {
    // Turns step the segment start by the golden ratio, so any seed's
    // segments cover the orbit evenly after a few turns: frame cost then
    // depends on how many frames ran, not on where the seed started.
    ++turns_;
    phase_ = start_ + static_cast<float>(turns_) * 0.618034f;
    until_turn_ = 80 + static_cast<int>(rng_.uniform_index(81));
  } else {
    phase_ += kCreepStep * rng_.uniform(0.5f, 1.5f);
  }
  phase_ -= std::floor(phase_);
  return cam;
}

Fixture::~Fixture() {
  for (const std::string& p : store_paths) std::remove(p.c_str());
}

std::unique_ptr<Fixture> set_up(Workload w, std::uint64_t seed,
                                const std::string& store_prefix) {
  auto fx = std::make_unique<Fixture>(w, seed);
  auto t0 = std::chrono::steady_clock::now();
  auto lap = [&t0] {
    const double s = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    return s;
  };

  gs::GaussianModel model;
  {
    SGS_TRACE_SPAN("setup", "generate");
    model = scene::make_preset_scene(kPreset, kModelScale);
  }
  fx->times.generate_s = lap();

  // The fleet hosts the scene grouped at 1x and 1.5x the preset voxel.
  const int scenes = w == Workload::kServeFleet ? 2 : 1;
  {
    SGS_TRACE_SPAN("setup", "prepare");
    for (int k = 0; k < scenes; ++k) {
      core::StreamingConfig cfg;
      cfg.voxel_size = base_voxel() * (1.0f + 0.5f * static_cast<float>(k));
      cfg.use_vq = w == Workload::kResident || w == Workload::kOocL0;
      // Paper-size codebooks, fewer Lloyd passes than the library default
      // (12 + 3), so three set-ups fit in one run. Every training phase
      // (seeding, parallel iterations, serial refinement) still runs.
      cfg.vq.kmeans_iters = 4;
      cfg.vq.refine_iters = 1;
      fx->resident.push_back(core::StreamingScene::prepare(model, cfg));
    }
  }
  fx->times.prepare_s = lap();
  if (w == Workload::kResident) return fx;

  {
    SGS_TRACE_SPAN("setup", "store_write");
    stream::AssetStoreWriteOptions opts;
    if (w == Workload::kOocL0) opts.tier_count = 3;
    if (w == Workload::kLodLink) {
      opts = stream::AssetStoreWriteOptions::with_coarse_floor();
    }
    for (int k = 0; k < scenes; ++k) {
      fx->store_paths.push_back(store_prefix + "." + std::to_string(k) +
                                ".sgsc");
      if (!stream::AssetStore::write(fx->store_paths.back(),
                                     fx->resident[static_cast<std::size_t>(k)],
                                     opts)) {
        throw std::runtime_error("store write rejected: " +
                                 fx->store_paths.back());
      }
    }
  }
  fx->times.store_write_s = lap();

  {
    SGS_TRACE_SPAN("setup", "cache_open");
    if (w == Workload::kServeFleet) {
      fx->fleet = open_fleet(fx->store_paths, false);
    } else {
      fx->stream = open_stream(w, fx->store_paths[0], seed, false);
    }
  }
  fx->times.cache_open_s = lap();
  return fx;
}

PassRecord run_pass(Fixture& fx, const PassOptions& options) {
  return fx.workload == Workload::kServeFleet ? run_fleet(fx, options)
                                              : run_single(fx, options);
}

std::vector<std::uint64_t> reference_hashes(const Fixture& fx, int session,
                                            int frames) {
  const std::size_t scene_index =
      static_cast<std::size_t>(session) % fx.resident.size();
  core::SequenceRenderer renderer(fx.resident[scene_index],
                                  sequence_options(false));
  CameraPath path(session_seed(fx.seed, session));
  std::vector<std::uint64_t> hashes;
  for (int f = 0; f < frames; ++f) {
    hashes.push_back(image_hash(renderer.render(path.next()).image));
  }
  return hashes;
}

std::uint64_t path_hash(Workload w, std::uint64_t seed, int frames) {
  const int sessions = w == Workload::kServeFleet ? kFleetSessions : 1;
  std::uint64_t h = 0;
  for (int s = 0; s < sessions; ++s) {
    CameraPath path(session_seed(seed, s));
    for (int f = 0; f < frames; ++f) path.next();
    h = mix_seed(h, path.hash());
  }
  return h;
}

}  // namespace ledger
