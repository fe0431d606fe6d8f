// The four frame paths the ledger measures, their seeded inputs, set-up,
// and one measured pass over each.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/streaming_renderer.hpp"
#include "core/streaming_trace.hpp"
#include "gs/camera.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace ledger {

enum class Workload { kResident, kOocL0, kLodLink, kServeFleet };

inline constexpr std::array<Workload, 4> kAllWorkloads = {
    Workload::kResident, Workload::kOocL0, Workload::kLodLink,
    Workload::kServeFleet};

const char* workload_name(Workload w);
std::optional<Workload> workload_from_name(const std::string& name);

// Independent RNG streams derived from the one --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Headset-style creep along the train preset's orbit: a uniform start
// phase, a per-frame step jittered x U[0.5, 1.5], and every U[80, 160]
// frames a "head turn" jump far outside the plan-reuse envelope.
class CameraPath {
 public:
  explicit CameraPath(std::uint64_t seed);
  sgs::gs::Camera next();
  // FNV-1a over the phases handed out so far: stamps which path ran.
  std::uint64_t hash() const { return hash_; }

 private:
  sgs::Rng rng_;
  float start_ = 0.0f;
  float phase_ = 0.0f;
  int turns_ = 0;
  int until_turn_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct SetupTimes {
  double generate_s = 0.0;
  double prepare_s = 0.0;
  double store_write_s = 0.0;
  double cache_open_s = 0.0;

  double total() const {
    return generate_s + prepare_s + store_write_s + cache_open_s;
  }
};

// The out-of-core side of one single-viewer pass: a store over its
// transport, a fresh cache, and the prefetching loader. Member order is
// destruction order in reverse: the loader goes before its cache, the
// cache before its store.
struct Stream {
  std::shared_ptr<sgs::stream::SimulatedNetworkBackend> link;  // lod_link
  std::shared_ptr<TimedBackend> probe;                         // replay only
  std::unique_ptr<sgs::stream::AssetStore> store;
  sgs::core::StreamingScene scene;
  std::unique_ptr<sgs::stream::ResidencyCache> cache;
  std::unique_ptr<sgs::stream::StreamingLoader> loader;
};

// A served fleet: its stores and the server whose shards read them.
struct Fleet {
  std::vector<std::shared_ptr<TimedBackend>> probes;  // replay only
  std::vector<std::unique_ptr<sgs::stream::AssetStore>> stores;
  std::unique_ptr<sgs::serve::SceneServer> server;
};

// Everything one set-up builds. Removes its store files when destroyed.
struct Fixture {
  Fixture(Workload w, std::uint64_t s) : workload(w), seed(s) {}
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Workload workload;
  std::uint64_t seed;
  SetupTimes times;
  // Per hosted scene, prepared with resident parameters: the reference
  // every output check renders against.
  std::vector<sgs::core::StreamingScene> resident;
  std::vector<std::string> store_paths;
  Stream stream;  // ooc_l0, lod_link
  Fleet fleet;    // serve_fleet
};

// Generates the scene, prepares it, writes and opens the store(s), and
// builds the cache or server, timing each phase. Store files go to
// `<store_prefix>.<k>.sgsc`. Throws on any failure.
std::unique_ptr<Fixture> set_up(Workload w, std::uint64_t seed,
                                const std::string& store_prefix);

struct PassOptions {
  double seconds = 0.0;   // > 0: render until this much timed wall time
  int frames = 0;         // otherwise: this many frames (per fleet session)
  int hash_frames = 0;    // frames per checked session to hash
  bool traced = false;    // tracing, stage timing, and the timing probes
  bool simulate = false;  // run the accelerator model on every frame
};

// What one pass measured. Timing fields vary run to run; the `prefix_*`
// counts cover the hashed frames only and are deterministic.
struct PassRecord {
  std::size_t frames = 0;
  double timed_s = 0.0;
  std::vector<std::uint64_t> frame_ns;  // render wall time, queue wait excluded
  // Pixel hashes of the checked sessions' first hash_frames frames
  // (one session for single viewers, sessions 0 and 1 of the fleet).
  std::vector<std::vector<std::uint64_t>> hashes;
  std::uint64_t prefix_dram_bytes = 0;
  std::uint64_t prefix_plans_built = 0;

  double psnr_sum_db = 0.0;
  std::size_t psnr_samples = 0;

  sgs::core::StreamCacheStats cache;
  std::size_t stall_frames = 0;
  std::size_t fallback_frames = 0;
  std::size_t error_frames = 0;
  std::size_t plans_reused = 0;
  sgs::core::StageTimingsNs stages;
  std::uint64_t residents = 0;
  std::uint64_t fine_pass = 0;
  std::uint64_t dram_bytes = 0;

  std::uint64_t sim_host_ns = 0;
  double sim_seconds = 0.0;
  double sim_dram_bytes = 0.0;
  double sim_energy_mj = 0.0;

  std::uint64_t pool_wait_ns = 0;
  std::uint64_t link_ns = 0;
  std::uint64_t prefetch_expired = 0;

  // Fleet only.
  double fairness = 1.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  std::uint64_t merged_prefetch = 0;

  // Probe snapshots (traced passes of out-of-core workloads only).
  sgs::obs::LogHistogram acquire_ns;
  sgs::obs::LogHistogram begin_frame_ns;
  sgs::obs::LogHistogram read_range_ns;
  std::uint64_t read_bytes = 0;
};

// Runs one pass. An untraced pass streams through the set-up's cache or
// server; a traced pass opens fresh ones behind the timing probes.
PassRecord run_pass(Fixture& fx, const PassOptions& options);

// Pixel hashes of `frames` frames of checked session `session`'s path,
// rendered by a resident SequenceRenderer: the reference the out-of-core
// and served frames must match bit for bit.
std::vector<std::uint64_t> reference_hashes(const Fixture& fx, int session,
                                            int frames);

// Hash of every checked session's first `frames` cameras.
std::uint64_t path_hash(Workload w, std::uint64_t seed, int frames);

}  // namespace ledger
