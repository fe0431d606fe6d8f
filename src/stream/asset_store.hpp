// AssetStore: the chunked on-disk scene format (.sgsc) for out-of-core
// streaming. The unit of storage — and of fetch traffic — is the voxel
// group: all Gaussians resident in one dense voxel, stored as one
// contiguous payload so a fetch is a single sequential read, exactly the
// burst the DRAM model prices.
//
// Since v2 a group may carry up to kLodTierCount payload tiers, each a
// cheaper encoding of the same group along two axes:
//   - SH truncation: a tier stores only the first sh_coeffs spherical-
//     harmonics coefficients per Gaussian (complete bands: 16, 9, 4, or
//     1); the decoder zero-fills the rest. SH is 81% of a raw record, so
//     band <=1 (4 coeffs) cuts a record to 92 B and DC-only to 56 B.
//   - Importance pruning: a tier keeps only the top keep*count residents
//     by opacity * max_scale, with survivors' opacities scaled up so the
//     group keeps its opacity mass (clamped, deterministic).
// Default tiers: L0 = full fidelity (bit-identical to the v1 payload),
// L1 = all residents at SH band <=1, L2 = pruned subset at DC only.
// Tiers are built once at store-write time; the per-group per-tier
// directory lets a loader fetch a distant group at a fraction of its L0
// bytes. A v1 file is readable as "v2 with one tier", and writing with
// tier_count == 1 emits a byte-identical v1 file.
//
// File layout (little-endian, magic "SGSC", normative spec in
// docs/SGSC_FORMAT.md):
//
//   header       rendering config + voxel-grid config + counts + flags
//                (+ tier count and per-tier SH coefficient counts, v2)
//   codebooks    the four VQ codebooks (Codebook::save), VQ scenes only
//   directory    per group: raw voxel id, AABB, and per tier
//                offset/size/count (v1: single tier, different field order)
//   index table  u32 model index per Gaussian, groups concatenated in dense
//                order — the spatial index stays resident (4 B/Gaussian)
//                while parameters stream (24 B VQ / 236 B raw per Gaussian)
//   tier tables  v2 only: per tier >= 1, the pruned groups' model indices
//                (same framing as the index table; resident like it)
//   payloads     per group per tier, parameter records only:
//                  raw  {pos3, scale3, rot4 wxyz, opacity, sh 3*N} f32,
//                       N = the tier's sh_coeffs (59 floats at L0)
//                  VQ   {pos3 f32, opacity f32, scale/rot/DC u16, plus the
//                       SH index u16 when sh_coeffs > 1}
//
// Decoding a fetched L0 group reproduces the prepared scene's grouped
// columns bit-for-bit: raw payloads are the exact floats, VQ payloads replay
// QuantizedModel::decode against codebooks that round-tripped exactly. That
// is the property the out-of-core == resident golden test pins down; L1/L2
// payloads truncate/prune the same records and are validated by PSNR
// bounds instead.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/streaming_renderer.hpp"
#include "core/streaming_trace.hpp"
#include "gs/gaussian.hpp"
#include "gs/gaussian_soa.hpp"
#include "stream/fetch_backend.hpp"
#include "stream/stream_error.hpp"
#include "voxel/grid.hpp"
#include "vq/codebook.hpp"

namespace sgs::stream {

inline constexpr std::uint32_t kSgscMagic = 0x43534753;  // "SGSC"
inline constexpr std::uint32_t kSgscVersionV1 = 1;
inline constexpr std::uint32_t kSgscVersion = 2;

using core::kLodTierCount;

// One tier's payload extent within a group's directory entry.
struct TierExtent {
  std::uint64_t offset = 0;  // absolute file offset of the tier payload
  std::uint64_t bytes = 0;   // payload size on disk (the fetch traffic unit)
  std::uint32_t count = 0;   // Gaussians in this tier's subset
};

struct AssetDirEntry {
  voxel::RawVoxelId raw_id = 0;
  Vec3f aabb_min{0, 0, 0};  // world-space voxel bounds (prefetch ranking)
  Vec3f aabb_max{0, 0, 0};
  // Per-tier extents; tiers[0] is the full-fidelity group. Slots >= the
  // store's tier_count() stay zero.
  std::array<TierExtent, kLodTierCount> tiers{};
};

// One voxel group fetched from the store and decoded to SoA columns
// (resident order — index k here is resident k of the tier's subset).
// Decoded floats are bitwise identical to what a resident scene's grouped
// columns hold for the same records, which is what keeps the out-of-core ==
// resident invariant byte-exact under SIMD (equal inputs, same kernels).
struct DecodedGroup {
  std::span<const std::uint32_t> model_indices;  // store's resident index table
  gs::GaussianColumns cols;
  std::uint64_t payload_bytes = 0;  // file bytes this fetch read
  std::uint64_t fetch_ns = 0;       // backend transfer time for those bytes
                                    // (virtual on a simulated link) — what
                                    // a BandwidthEstimator observes
  int tier = 0;                     // which payload tier was decoded

  std::size_t size() const { return cols.size(); }
  gs::Gaussian gaussian(std::size_t k) const { return cols.gaussian(k); }
  float max_scale(std::size_t k) const { return cols.max_scale[k]; }

  // In-memory footprint charged against a residency budget.
  std::size_t resident_bytes() const { return cols.bytes(); }
};

// How one payload tier degrades the full parameter set.
struct TierSpec {
  // Fraction of each group's residents the tier keeps. Selection is the
  // top ceil(keep*count) residents by opacity * max_scale — the screen
  // contribution proxy — with the original resident order preserved, at
  // least one resident per non-empty group, and counts clamped monotone
  // non-increasing across tiers. Survivors' opacities are scaled by the
  // group's pruned opacity mass (clamped to [1,2]x and 1.0 absolute).
  float keep = 1.0f;
  // Spherical-harmonics coefficients stored per record: a complete band
  // count (16, 9, 4, or 1). The decoder zero-fills the truncated tail.
  int sh_coeffs = gs::kShCoeffCount;
};

struct AssetStoreWriteOptions {
  // Payload tiers to emit. 1 writes a v1 file, byte-identical to the
  // pre-LOD writer; 2..kLodTierCount write a v2 file whose lower tiers
  // follow `tiers[t]`. tiers[0] must stay full fidelity.
  int tier_count = 1;
  std::array<TierSpec, kLodTierCount> tiers = {
      TierSpec{1.0f, gs::kShCoeffCount},  // L0: everything, exact
      TierSpec{1.0f, 4},                  // L1: SH band <= 1
      TierSpec{0.85f, 1},                 // L2: DC only, lightly pruned
  };

  // Options for a store whose LAST tier is a dedicated coarse-floor
  // payload: L1 keeps every resident at SH band <= 1, while the final tier
  // prunes to the top `keep` fraction at DC only — small enough that a
  // ResidencyCache can pin every group's floor under a few % of the
  // scene's decoded bytes (the budget counts decoded records, so the floor
  // cost scales with kept residents, not with SH truncation).
  static AssetStoreWriteOptions with_coarse_floor(float keep = 0.04f);
};

class AssetStore {
 public:
  // Serializes a prepared scene (which must have resident parameters) into
  // the .sgsc format. Returns false on invalid options or an unprepared
  // scene. IO failures THROW StreamException (kIoWrite, path in the
  // message): the stream state is verified after the payload pass and on
  // close, so a full disk can no longer silently emit a truncated store
  // that only fails at read time.
  static bool write(const std::string& path, const core::StreamingScene& scene,
                    const AssetStoreWriteOptions& options = {});

  // Opens a store: loads header, codebooks, directory, and index/tier
  // tables; reassembles the voxel grid. Payloads stay on disk. Accepts v1
  // files (read as a single-tier v2). Throws StreamException (a
  // std::runtime_error carrying the typed StreamError) on malformed input.
  // The path overload reads through a LocalFileBackend — byte-identical to
  // the pre-seam direct-file path; the backend overload streams everything
  // (open-time metadata included) through the given transport.
  explicit AssetStore(const std::string& path);
  explicit AssetStore(std::shared_ptr<FetchBackend> backend);

  // Non-throwing open: returns nullptr on failure, with the typed error in
  // *error (when non-null). The fault-isolated entry point a long-lived
  // server uses so one bad store cannot unwind the process.
  static std::unique_ptr<AssetStore> open(const std::string& path,
                                          StreamError* error = nullptr);
  static std::unique_ptr<AssetStore> open(std::shared_ptr<FetchBackend> backend,
                                          StreamError* error = nullptr);

  // The transport this store reads through (never null once constructed).
  // Its stats() are the link-level transfer counters — open-time metadata
  // and coarse-floor pin traffic included, unlike the cache's fetch-scoped
  // net_bytes/net_stall_ns.
  const FetchBackend& backend() const { return *backend_; }

  bool vector_quantized() const { return vq_; }
  std::size_t gaussian_count() const { return gaussian_count_; }
  // Payload tiers this store carries (1 for v1 files).
  int tier_count() const { return tier_count_; }
  // The residency-hierarchy capability open() reports: true when the store
  // carries a cheaper-than-L0 tier a ResidencyCache can pin as its
  // always-resident coarse floor. A v1 (single-tier) store reports false,
  // and deadline-driven callers fall back to the blocking demand-fetch
  // path on it.
  bool has_coarse_tier() const { return tier_count_ > 1; }
  // The floor tier itself — the store's cheapest payload tier.
  int coarse_tier() const { return tier_count_ - 1; }
  // SH coefficients stored per record at `tier` (kShCoeffCount at L0).
  int tier_sh_coeffs(int tier) const {
    return tier_sh_[static_cast<std::size_t>(tier)];
  }
  std::int32_t group_count() const {
    return static_cast<std::int32_t>(directory_.size());
  }
  const AssetDirEntry& entry(voxel::DenseVoxelId v) const {
    return directory_[static_cast<std::size_t>(v)];
  }
  const TierExtent& tier_extent(voxel::DenseVoxelId v, int tier) const {
    return directory_[static_cast<std::size_t>(v)]
        .tiers[static_cast<std::size_t>(tier)];
  }
  std::span<const AssetDirEntry> directory() const { return directory_; }
  // Sum of tier-0 payload bytes on disk: the scene's full-fidelity
  // streamable parameter footprint (what an all-L0 walkthrough's fetch
  // traffic is charged against). Lower tiers add payload_bytes_tier(t) —
  // a sum of directory extents, so a tier whose payload aliases the tier
  // above (see the writer) re-counts the shared bytes.
  std::uint64_t payload_bytes_total() const { return payload_total_[0]; }
  std::uint64_t payload_bytes_tier(int tier) const {
    return payload_total_[static_cast<std::size_t>(tier)];
  }
  // Total *decoded* in-memory footprint of all groups at L0 — the unit a
  // ResidencyCache budget is expressed in. Distinct from payload bytes:
  // a VQ payload is 24 B/Gaussian on disk but decodes to full SoA columns.
  std::uint64_t decoded_bytes_total() const {
    return static_cast<std::uint64_t>(gaussian_count_) *
           gs::GaussianColumns::kBytesPerRecord;
  }

  const core::StreamingConfig& config() const { return config_; }
  const voxel::VoxelGrid& grid() const { return grid_; }

  // Model indices of group v's residents at `tier` (streaming order),
  // backed by the resident index/tier tables — valid for the store's
  // lifetime. Tier 1+ spans are subsequences of the tier-0 span.
  std::span<const std::uint32_t> group_indices(voxel::DenseVoxelId v,
                                               int tier = 0) const;

  // A model-free StreamingScene (grid + layout + config) around this
  // store's metadata; render it through a cache-backed GroupSource.
  core::StreamingScene make_scene() const {
    return core::StreamingScene::from_parts(config_, grid_);
  }

  // Reads one group's payload at `tier` through the backend and decodes
  // it. Thread-safe: backends serialize their own transport, decode runs
  // unlocked. `tier` must be < tier_count(). Returns the decoded group or a
  // StreamError (kIoRead / kNetTimeout / kCorruptPayload / kDecode,
  // group+tier tagged) without ever propagating an exception. A failed
  // read is a recoverable, per-group event: the store stays open and every
  // other group stays readable. A transfer that delivers fewer bytes than
  // the directory extent — a short read mid-payload, however the backend
  // noticed it — maps to kIoRead with group+tier context here, never to a
  // decode error. This is what the ResidencyCache fetches through.
  StreamResult<DecodedGroup> read_group_checked(voxel::DenseVoxelId v,
                                                int tier = 0) const;

 private:
  // For open(): members are filled by load(). Keep default-constructible
  // state private so a half-loaded store can never escape.
  AssetStore() = default;

  // Parses the store behind backend_ into this instance. Returns false
  // with the typed error in *error on any malformed input; never throws.
  bool load(StreamError* error);

  // The throwing core of the read path (throws StreamException only);
  // read_group_checked catches and converts.
  DecodedGroup read_group_impl(voxel::DenseVoxelId v, int tier) const;
  core::StreamingConfig config_;
  voxel::VoxelGrid grid_;
  bool vq_ = false;
  int tier_count_ = 1;
  std::array<int, kLodTierCount> tier_sh_{gs::kShCoeffCount,
                                          gs::kShCoeffCount,
                                          gs::kShCoeffCount};
  std::size_t gaussian_count_ = 0;
  std::array<std::uint64_t, kLodTierCount> payload_total_{};
  std::vector<AssetDirEntry> directory_;
  // Per tier: per-group model-index lists, concatenated in dense order, with
  // prefix-sum offsets. Tier 0 is the resident spatial index of v1.
  std::array<std::vector<std::uint32_t>, kLodTierCount> index_table_;
  std::array<std::vector<std::uint64_t>, kLodTierCount> index_offsets_;
  vq::Codebook scale_cb_, rotation_cb_, dc_cb_, sh_cb_;

  // The byte-ranged transport every read goes through (fetch_backend.hpp).
  std::shared_ptr<FetchBackend> backend_;
};

}  // namespace sgs::stream
