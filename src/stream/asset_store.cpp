#include "stream/asset_store.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <stdexcept>
#include <utility>

#include "core/streaming_trace.hpp"
#include "gs/kernels.hpp"
#include "vq/quantized_model.hpp"

namespace sgs::stream {

namespace {

// On-disk record sizes. Fixed constants, not sizeof() of host structs: the
// fetch traffic the DRAM model charges must not depend on host padding.
constexpr std::size_t kDirEntryBytesV1 = 8 + 8 + 8 + 4 + 6 * 4;  // 52
constexpr std::size_t kTierExtentBytes = 8 + 8 + 4;              // 20

std::size_t dir_entry_bytes_v2(int tiers) {
  return 8 + 6 * 4 + static_cast<std::size_t>(tiers) * kTierExtentBytes;
}

// Bytes of one parameter record carrying `sh_coeffs` SH coefficients.
// Raw: pos3 + scale3 + rot4 + opacity + 3*sh floats (236 B at full SH).
// VQ: pos3 + opacity floats + scale/rotation/DC indices, plus the SH index
// only when the tier stores any AC coefficients (24 B full, 22 B DC-only).
std::size_t record_bytes(bool vq, int sh_coeffs) {
  if (vq) {
    return 4 * sizeof(float) +
           (sh_coeffs > 1 ? 4 : 3) * sizeof(std::uint16_t);
  }
  return (11 + 3 * static_cast<std::size_t>(sh_coeffs)) * sizeof(float);
}

// Most raw voxels (x * y * z grid cells) a header may claim. Opening sizes
// a 4 B renaming entry per raw voxel (VoxelGrid::assemble), so this bounds
// that table at 64 MiB. The largest grid any preset, bench or test builds
// has 93,025 cells (61 x 25 x 61: fig12_voxel_size at voxel size 0.5 on
// `train`), 180x below the cap.
constexpr std::uint64_t kMaxRawVoxels = std::uint64_t{1} << 24;

bool valid_sh_coeffs(int n) { return n == 1 || n == 4 || n == 9 || n == 16; }

template <typename T>
void put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_vec3(std::ostream& out, Vec3f v) {
  put<float>(out, v.x);
  put<float>(out, v.y);
  put<float>(out, v.z);
}

template <typename T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("truncated .sgsc stream");
  return v;
}

Vec3f get_vec3(std::istream& in) {
  Vec3f v;
  v.x = get<float>(in);
  v.y = get<float>(in);
  v.z = get<float>(in);
  return v;
}

// Reads a little-endian scalar out of a fetched payload buffer.
template <typename T>
T peel(const char*& p) {
  T v{};
  std::copy(p, p + sizeof(T), reinterpret_cast<char*>(&v));
  p += sizeof(T);
  return v;
}

// Local ranks (positions within the group's resident list) a tier keeps:
// the top ceil(keep*count) residents by opacity * max_scale — the same
// contribution proxy the coarse filter trusts — re-sorted into the original
// resident order so tier payloads stream in the exact relative order the
// full payload would, keeping rendering order deterministic per tier.
std::vector<std::uint32_t> select_tier_ranks(
    std::span<const float> importance, float keep) {
  const auto count = static_cast<std::uint32_t>(importance.size());
  if (count == 0) return {};
  const auto want = static_cast<std::uint32_t>(std::clamp<double>(
      std::ceil(static_cast<double>(keep) * count), 1.0, count));
  std::vector<std::uint32_t> ranks(count);
  for (std::uint32_t k = 0; k < count; ++k) ranks[k] = k;
  // Ties broken by rank so selection is deterministic.
  std::stable_sort(ranks.begin(), ranks.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return importance[a] != importance[b]
                                ? importance[a] > importance[b]
                                : a < b;
                   });
  ranks.resize(want);
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

// Writes one tier record from the scene's grouped columns: `slot` is the
// record's column index, `mi` its model index (a VQ record's codebook
// indices). `sh_coeffs` SH coefficients survive (the decoder zero-fills the
// rest) and `opacity_comp` is the pruned tier's opacity-compensation factor
// (1 for tier 0): survivors absorb the opacity mass of their pruned
// neighbors so the group's transmittance stays close to the full payload's.
void write_record(std::ostream& out, const core::StreamingScene& scene,
                  std::size_t slot, std::uint32_t mi,
                  int sh_coeffs = gs::kShCoeffCount,
                  float opacity_comp = 1.0f) {
  const gs::Gaussian g = scene.group_columns().gaussian(slot);
  put_vec3(out, g.position);
  if (const vq::QuantizedModel* qm = scene.quantized()) {
    put<float>(out, std::min(1.0f, g.opacity * opacity_comp));
    const vq::QuantizedIndices& qi = qm->indices(mi);
    put<std::uint16_t>(out, qi.scale);
    put<std::uint16_t>(out, qi.rotation);
    put<std::uint16_t>(out, qi.dc);
    if (sh_coeffs > 1) put<std::uint16_t>(out, qi.sh);
  } else {
    put_vec3(out, g.scale);
    put<float>(out, g.rotation.w);
    put<float>(out, g.rotation.x);
    put<float>(out, g.rotation.y);
    put<float>(out, g.rotation.z);
    put<float>(out, std::min(1.0f, g.opacity * opacity_comp));
    for (int c = 0; c < sh_coeffs; ++c) {
      put_vec3(out, g.sh[static_cast<std::size_t>(c)]);
    }
  }
}

}  // namespace

AssetStoreWriteOptions AssetStoreWriteOptions::with_coarse_floor(float keep) {
  AssetStoreWriteOptions opts;
  opts.tier_count = kLodTierCount;
  // Clamp away degenerate floors: keep == 0 would still emit one resident
  // per group (the writer's floor), and keep == 1 would make the "coarse"
  // tier as expensive to pin as the scene itself.
  const float k = std::clamp(keep, 0.01f, 0.5f);
  opts.tiers = {
      TierSpec{1.0f, gs::kShCoeffCount},  // L0: everything, exact
      TierSpec{1.0f, 4},                  // L1: SH band <= 1
      TierSpec{k, 1},                     // floor: heavily pruned, DC only
  };
  return opts;
}

bool AssetStore::write(const std::string& path,
                       const core::StreamingScene& scene,
                       const AssetStoreWriteOptions& options) {
  if (!scene.params_resident()) return false;
  const int tiers = options.tier_count;
  if (tiers < 1 || tiers > kLodTierCount) return false;
  // Tier 0 is the exact scene; lower tiers may only degrade.
  if (options.tiers[0].keep < 1.0f ||
      options.tiers[0].sh_coeffs != gs::kShCoeffCount) {
    return false;
  }
  for (int t = 1; t < tiers; ++t) {
    const TierSpec& spec = options.tiers[static_cast<std::size_t>(t)];
    if (!(spec.keep > 0.0f && spec.keep <= 1.0f) ||
        !valid_sh_coeffs(spec.sh_coeffs)) {
      return false;
    }
  }
  const core::StreamingConfig& cfg = scene.config();
  const voxel::VoxelGrid& grid = scene.grid();
  const bool vq = cfg.use_vq;
  if (vq && scene.quantized() == nullptr) return false;

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw StreamException({StreamErrorKind::kIoWrite, -1, -1,
                           "cannot open .sgsc store for writing: " + path});
  }

  put<std::uint32_t>(out, kSgscMagic);
  put<std::uint32_t>(out, tiers == 1 ? kSgscVersionV1 : kSgscVersion);
  put<std::uint32_t>(out, vq ? 1u : 0u);
  // Rendering config.
  put<float>(out, cfg.voxel_size);
  put<std::int32_t>(out, cfg.group_size);
  put<std::int32_t>(out, cfg.ray_stride);
  put<std::uint8_t>(out, cfg.use_coarse_filter ? 1 : 0);
  put_vec3(out, cfg.background);
  // Grid config (authoritative: the grid was built from the original
  // positions, which are exact under VQ too).
  const voxel::VoxelGridConfig& gc = grid.config();
  put_vec3(out, gc.origin);
  put<float>(out, gc.voxel_size);
  put<std::int32_t>(out, gc.dims.x);
  put<std::int32_t>(out, gc.dims.y);
  put<std::int32_t>(out, gc.dims.z);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(grid.gaussian_count()));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(grid.voxel_count()));
  if (tiers > 1) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(tiers));
    for (int t = 0; t < tiers; ++t) {
      put<std::uint8_t>(out, static_cast<std::uint8_t>(
                                 options.tiers[static_cast<std::size_t>(t)]
                                     .sh_coeffs));
    }
  }

  if (vq) {
    const vq::QuantizedModel& qm = *scene.quantized();
    if (!qm.scale_codebook().save(out) || !qm.rotation_codebook().save(out) ||
        !qm.dc_codebook().save(out) || !qm.sh_codebook().save(out)) {
      throw StreamException({StreamErrorKind::kIoWrite, -1, -1,
                             "failed writing .sgsc codebooks: " + path});
    }
  }

  // Tier selection: per group, the local ranks each tier keeps (tier 0 is
  // implicitly everything). Computed up front so directory offsets are
  // known before any payload is written.
  // Every per-record value comes from the group's column slice: resident k
  // of group v is column slot group_offset(v) + k.
  const auto n_groups = static_cast<std::size_t>(grid.voxel_count());
  const gs::GaussianColumns& cols = scene.group_columns();
  // selected[t - 1][v] holds tier t's local ranks for group v.
  std::vector<std::vector<std::vector<std::uint32_t>>> selected(
      static_cast<std::size_t>(tiers > 1 ? tiers - 1 : 0));
  if (tiers > 1) {
    std::vector<float> importance;
    for (std::size_t v = 0; v < n_groups; ++v) {
      const auto residents =
          grid.gaussians_in(static_cast<voxel::DenseVoxelId>(v));
      const std::size_t first =
          scene.group_offset(static_cast<voxel::DenseVoxelId>(v));
      importance.resize(residents.size());
      for (std::size_t k = 0; k < residents.size(); ++k) {
        importance[k] = cols.opacity[first + k] * cols.max_scale[first + k];
      }
      std::uint32_t prev = static_cast<std::uint32_t>(residents.size());
      for (int t = 1; t < tiers; ++t) {
        auto ranks = select_tier_ranks(
            importance, options.tiers[static_cast<std::size_t>(t)].keep);
        // Monotone non-increasing across tiers even under odd keep
        // fractions: a lower tier never carries more than the one above.
        if (ranks.size() > prev) ranks.resize(prev);
        prev = static_cast<std::uint32_t>(ranks.size());
        selected[static_cast<std::size_t>(t - 1)].push_back(std::move(ranks));
      }
    }
  }

  // Directory: payload offsets are computed up front (record sizes are
  // fixed per tier), so the file is written in one forward pass. Payloads
  // are laid out tier-major (all L0 groups, then all L1, then all L2) so
  // the L0 region reads exactly like a v1 payload section.
  auto tier_count_of = [&](std::size_t v, int t) -> std::uint64_t {
    if (t == 0) {
      return grid.gaussians_in(static_cast<voxel::DenseVoxelId>(v)).size();
    }
    return selected[static_cast<std::size_t>(t - 1)][v].size();
  };
  std::uint64_t tier_table_entries = 0;
  for (int t = 1; t < tiers; ++t) {
    for (std::size_t v = 0; v < n_groups; ++v) {
      tier_table_entries += tier_count_of(v, t);
    }
  }
  const std::size_t dir_bytes =
      tiers == 1 ? kDirEntryBytesV1 : dir_entry_bytes_v2(tiers);
  std::uint64_t cursor =
      static_cast<std::uint64_t>(out.tellp()) + n_groups * dir_bytes +
      (grid.gaussian_count() + tier_table_entries) * sizeof(std::uint32_t);
  // A tier whose spec degrades nothing relative to the tier above — both
  // keep everything and their records are byte-identical (e.g. any VQ tier
  // with sh_coeffs > 1: the SH index always decodes the full codebook
  // entry) — is written as an ALIAS: its directory extents point at the
  // tier above's payload and no bytes are duplicated on disk.
  std::array<bool, kLodTierCount> alias{};
  for (int t = 1; t < tiers; ++t) {
    const TierSpec& above = options.tiers[static_cast<std::size_t>(t - 1)];
    const TierSpec& spec = options.tiers[static_cast<std::size_t>(t)];
    alias[static_cast<std::size_t>(t)] =
        above.keep >= 1.0f && spec.keep >= 1.0f &&
        record_bytes(vq, above.sh_coeffs) == record_bytes(vq, spec.sh_coeffs);
  }

  // Compute every tier extent first, then emit entries in one pass.
  std::vector<std::array<TierExtent, kLodTierCount>> extents(n_groups);
  for (int t = 0; t < tiers; ++t) {
    const std::size_t rec_bytes = record_bytes(
        vq, options.tiers[static_cast<std::size_t>(t)].sh_coeffs);
    for (std::size_t v = 0; v < n_groups; ++v) {
      TierExtent& e = extents[v][static_cast<std::size_t>(t)];
      if (alias[static_cast<std::size_t>(t)]) {
        e = extents[v][static_cast<std::size_t>(t - 1)];
        continue;
      }
      e.count = static_cast<std::uint32_t>(tier_count_of(v, t));
      e.bytes = static_cast<std::uint64_t>(e.count) * rec_bytes;
      e.offset = cursor;
      cursor += e.bytes;
    }
  }
  for (std::size_t v = 0; v < n_groups; ++v) {
    const auto dv = static_cast<voxel::DenseVoxelId>(v);
    const Vec3f lo = grid.voxel_min_corner(dv);
    if (tiers == 1) {
      put<std::int64_t>(out, grid.raw_of_dense(dv));
      put<std::uint64_t>(out, extents[v][0].offset);
      put<std::uint64_t>(out, extents[v][0].bytes);
      put<std::uint32_t>(out, extents[v][0].count);
      put_vec3(out, lo);
      put_vec3(out, lo + Vec3f::splat(gc.voxel_size));
    } else {
      put<std::int64_t>(out, grid.raw_of_dense(dv));
      put_vec3(out, lo);
      put_vec3(out, lo + Vec3f::splat(gc.voxel_size));
      for (int t = 0; t < tiers; ++t) {
        put<std::uint64_t>(out, extents[v][static_cast<std::size_t>(t)].offset);
        put<std::uint64_t>(out, extents[v][static_cast<std::size_t>(t)].bytes);
        put<std::uint32_t>(out, extents[v][static_cast<std::size_t>(t)].count);
      }
    }
  }

  // Index table: the resident spatial index (model indices per group).
  for (std::size_t v = 0; v < n_groups; ++v) {
    const auto residents =
        grid.gaussians_in(static_cast<voxel::DenseVoxelId>(v));
    out.write(reinterpret_cast<const char*>(residents.data()),
              static_cast<std::streamsize>(residents.size() *
                                           sizeof(std::uint32_t)));
  }
  // Tier tables: the pruned groups' model indices, same framing.
  for (int t = 1; t < tiers; ++t) {
    for (std::size_t v = 0; v < n_groups; ++v) {
      const auto residents =
          grid.gaussians_in(static_cast<voxel::DenseVoxelId>(v));
      for (const std::uint32_t rank : selected[static_cast<std::size_t>(t - 1)][v]) {
        put<std::uint32_t>(out, residents[rank]);
      }
    }
  }

  // Payloads, tier-major. Pruned tiers compensate: the kept records'
  // opacities are scaled so the group keeps (approximately) the opacity
  // mass the pruned Gaussians carried, clamped to [1, 2]x per record and
  // to 1.0 absolute — without it a pruned group goes visibly translucent.
  for (int t = 0; t < tiers; ++t) {
    if (alias[static_cast<std::size_t>(t)]) continue;  // shares the payload above
    for (std::size_t v = 0; v < n_groups; ++v) {
      const auto dv = static_cast<voxel::DenseVoxelId>(v);
      const auto residents = grid.gaussians_in(dv);
      const std::size_t first = scene.group_offset(dv);
      if (t == 0) {
        for (std::size_t k = 0; k < residents.size(); ++k) {
          write_record(out, scene, first + k, residents[k]);
        }
      } else {
        const auto& sel = selected[static_cast<std::size_t>(t - 1)][v];
        const int sh =
            options.tiers[static_cast<std::size_t>(t)].sh_coeffs;
        float full_mass = 0.0f;
        float kept_mass = 0.0f;
        for (std::size_t k = 0; k < residents.size(); ++k) {
          full_mass += cols.opacity[first + k];
        }
        for (const std::uint32_t rank : sel) {
          kept_mass += cols.opacity[first + rank];
        }
        const float comp =
            kept_mass > 0.0f
                ? std::clamp(full_mass / kept_mass, 1.0f, 2.0f)
                : 1.0f;
        for (const std::uint32_t rank : sel) {
          write_record(out, scene, first + rank, residents[rank], sh, comp);
        }
      }
    }
  }
  // Verify the stream made it to disk. ofstream never throws on a failed
  // write by default — a full disk would silently emit a truncated store
  // that only fails at read time (or worse, at render time on a customer's
  // box). flush() forces buffered bytes out so badbit reflects the actual
  // syscalls; close() catches the final flush of the tail.
  out.flush();
  if (!out) {
    throw StreamException({StreamErrorKind::kIoWrite, -1, -1,
                           "short write to .sgsc store (disk full?): " + path});
  }
  out.close();
  if (out.fail()) {
    throw StreamException({StreamErrorKind::kIoWrite, -1, -1,
                           "failed to close .sgsc store: " + path});
  }
  return true;
}

AssetStore::AssetStore(const std::string& path) {
  backend_ = std::make_shared<LocalFileBackend>(path);
  StreamError error;
  if (!load(&error)) throw StreamException(std::move(error));
}

AssetStore::AssetStore(std::shared_ptr<FetchBackend> backend) {
  backend_ = std::move(backend);
  StreamError error;
  if (!load(&error)) throw StreamException(std::move(error));
}

std::unique_ptr<AssetStore> AssetStore::open(const std::string& path,
                                             StreamError* error) {
  return open(std::make_shared<LocalFileBackend>(path), error);
}

std::unique_ptr<AssetStore> AssetStore::open(
    std::shared_ptr<FetchBackend> backend, StreamError* error) {
  std::unique_ptr<AssetStore> store(new AssetStore());
  store->backend_ = std::move(backend);
  if (!store->load(error)) return nullptr;
  return store;
}

bool AssetStore::load(StreamError* error) {
  auto fail = [&](StreamErrorKind kind, std::string detail) {
    if (error != nullptr) *error = {kind, -1, -1, std::move(detail)};
    return false;
  };
  if (backend_ == nullptr) {
    return fail(StreamErrorKind::kIoOpen, "null fetch backend");
  }
  if (backend_->open_error().has_value()) {
    if (error != nullptr) *error = *backend_->open_error();
    return false;
  }
  // All open-time metadata streams through the same byte-ranged backend as
  // payload reads; a transport fault mid-parse is latched in the streambuf
  // so the catch below reports the typed transfer error.
  FetchStreamBuf sbuf(*backend_);
  std::istream in(&sbuf);
  in.exceptions(std::ios_base::goodbit);
  // The format layer currently being parsed: an unexpected throw (truncation
  // inside get<>, a codebook load) is attributed to this kind.
  StreamErrorKind section = StreamErrorKind::kCorruptHeader;
  try {
    const std::uint64_t file_size = backend_->size();
    if (get<std::uint32_t>(in) != kSgscMagic) {
      return fail(StreamErrorKind::kCorruptHeader, "bad .sgsc magic");
    }
    const std::uint32_t version = get<std::uint32_t>(in);
    if (version != kSgscVersionV1 && version != kSgscVersion) {
      return fail(StreamErrorKind::kCorruptHeader,
                  "unsupported .sgsc version");
    }
    vq_ = (get<std::uint32_t>(in) & 1u) != 0;
    config_.voxel_size = get<float>(in);
    config_.group_size = get<std::int32_t>(in);
    config_.ray_stride = get<std::int32_t>(in);
    config_.use_coarse_filter = get<std::uint8_t>(in) != 0;
    config_.background = get_vec3(in);
    config_.use_vq = vq_;

    voxel::VoxelGridConfig gc;
    gc.origin = get_vec3(in);
    gc.voxel_size = get<float>(in);
    gc.dims.x = get<std::int32_t>(in);
    gc.dims.y = get<std::int32_t>(in);
    gc.dims.z = get<std::int32_t>(in);
    if (gc.voxel_size <= 0.0f || gc.dims.x <= 0 || gc.dims.y <= 0 ||
        gc.dims.z <= 0) {
      return fail(StreamErrorKind::kCorruptHeader,
                  ".sgsc grid config implausible");
    }
    // Stepwise so the product cannot overflow: each factor is < 2^31.
    std::uint64_t raw_voxels = 1;
    for (const std::int32_t d : {gc.dims.x, gc.dims.y, gc.dims.z}) {
      raw_voxels *= static_cast<std::uint64_t>(d);
      if (raw_voxels > kMaxRawVoxels) {
        return fail(StreamErrorKind::kCorruptHeader,
                    ".sgsc grid has too many raw voxels");
      }
    }
    gaussian_count_ = static_cast<std::size_t>(get<std::uint64_t>(in));
    const std::uint32_t n_groups = get<std::uint32_t>(in);
    if (gaussian_count_ > (std::uint64_t{1} << 32) ||
        n_groups > (1u << 28)) {
      return fail(StreamErrorKind::kCorruptHeader, ".sgsc counts implausible");
    }
    if (version >= kSgscVersion) {
      tier_count_ = get<std::uint8_t>(in);
      if (tier_count_ < 2 || tier_count_ > kLodTierCount) {
        // A v2 file with one tier is written as v1; anything else is corrupt.
        return fail(StreamErrorKind::kCorruptHeader,
                    ".sgsc tier count implausible");
      }
      for (int t = 0; t < tier_count_; ++t) {
        tier_sh_[static_cast<std::size_t>(t)] = get<std::uint8_t>(in);
      }
      if (tier_sh_[0] != gs::kShCoeffCount) {
        return fail(StreamErrorKind::kCorruptHeader,
                    ".sgsc tier 0 must carry full SH");
      }
      for (int t = 1; t < tier_count_; ++t) {
        if (!valid_sh_coeffs(tier_sh_[static_cast<std::size_t>(t)])) {
          return fail(StreamErrorKind::kCorruptHeader,
                      ".sgsc tier SH count invalid");
        }
      }
    } else {
      tier_count_ = 1;
    }

    // Counts the header claims are checked against the bytes the input
    // still holds before anything is sized from them: a crafted header
    // must not make open allocate more than the file could back.
    const auto bytes_left = [&]() -> std::uint64_t {
      const std::streamoff pos = in.tellg();
      if (pos < 0) return 0;
      return file_size - std::min(file_size, static_cast<std::uint64_t>(pos));
    };
    if (vq_) {
      scale_cb_ = vq::Codebook::load(in, bytes_left());
      rotation_cb_ = vq::Codebook::load(in, bytes_left());
      dc_cb_ = vq::Codebook::load(in, bytes_left());
      sh_cb_ = vq::Codebook::load(in, bytes_left());
      if (scale_cb_.dim() != 3 || rotation_cb_.dim() != 4 ||
          dc_cb_.dim() != 3 || sh_cb_.dim() != 45) {
        return fail(StreamErrorKind::kCorruptHeader,
                    ".sgsc codebooks have wrong dims");
      }
    }

    section = StreamErrorKind::kCorruptDirectory;
    const std::uint64_t entry_bytes = tier_count_ == 1
                                          ? kDirEntryBytesV1
                                          : dir_entry_bytes_v2(tier_count_);
    if (std::uint64_t{n_groups} * entry_bytes > bytes_left()) {
      return fail(StreamErrorKind::kCorruptDirectory,
                  ".sgsc directory larger than the file");
    }
    directory_.resize(n_groups);
    std::uint64_t total_count = 0;
    for (AssetDirEntry& e : directory_) {
      e.raw_id = get<std::int64_t>(in);
      if (tier_count_ == 1) {
        e.tiers[0].offset = get<std::uint64_t>(in);
        e.tiers[0].bytes = get<std::uint64_t>(in);
        e.tiers[0].count = get<std::uint32_t>(in);
        e.aabb_min = get_vec3(in);
        e.aabb_max = get_vec3(in);
      } else {
        e.aabb_min = get_vec3(in);
        e.aabb_max = get_vec3(in);
        for (int t = 0; t < tier_count_; ++t) {
          TierExtent& x = e.tiers[static_cast<std::size_t>(t)];
          x.offset = get<std::uint64_t>(in);
          x.bytes = get<std::uint64_t>(in);
          x.count = get<std::uint32_t>(in);
        }
      }
      std::uint32_t prev_count = e.tiers[0].count;
      for (int t = 0; t < tier_count_; ++t) {
        const TierExtent& x = e.tiers[static_cast<std::size_t>(t)];
        const std::uint64_t rec_bytes =
            record_bytes(vq_, tier_sh_[static_cast<std::size_t>(t)]);
        // Each tier payload must hold exactly count fixed-size records, lie
        // inside the file — otherwise a read would decode past its buffer
        // — and never carry more residents than the tier above it.
        if (x.bytes != x.count * rec_bytes || x.offset > file_size ||
            x.bytes > file_size - x.offset || x.count > prev_count) {
          return fail(StreamErrorKind::kCorruptDirectory,
                      ".sgsc directory entry inconsistent");
        }
        prev_count = x.count;
        payload_total_[static_cast<std::size_t>(t)] += x.bytes;
      }
      total_count += e.tiers[0].count;
    }
    if (total_count != gaussian_count_) {
      return fail(StreamErrorKind::kCorruptDirectory,
                  ".sgsc directory does not cover the model");
    }

    // Index tables: tier 0 is the full resident spatial index; tiers >= 1
    // are the pruned subsets, each validated to be a subsequence of tier 0.
    section = StreamErrorKind::kCorruptIndex;
    for (int t = 0; t < tier_count_; ++t) {
      auto& table = index_table_[static_cast<std::size_t>(t)];
      auto& offsets = index_offsets_[static_cast<std::size_t>(t)];
      std::uint64_t entries = 0;
      for (std::uint32_t v = 0; v < n_groups; ++v) {
        entries += directory_[v].tiers[static_cast<std::size_t>(t)].count;
      }
      table.resize(entries);
      in.read(reinterpret_cast<char*>(table.data()),
              static_cast<std::streamsize>(table.size() *
                                           sizeof(std::uint32_t)));
      if (!in) {
        return fail(StreamErrorKind::kCorruptIndex,
                    "truncated .sgsc index table");
      }
      offsets.resize(n_groups + 1, 0);
      for (std::uint32_t v = 0; v < n_groups; ++v) {
        offsets[v + 1] =
            offsets[v] +
            directory_[v].tiers[static_cast<std::size_t>(t)].count;
      }
    }
    for (int t = 1; t < tier_count_; ++t) {
      for (std::uint32_t v = 0; v < n_groups; ++v) {
        const auto full =
            group_indices(static_cast<voxel::DenseVoxelId>(v), 0);
        const auto sub = group_indices(static_cast<voxel::DenseVoxelId>(v), t);
        std::size_t i = 0;
        for (const std::uint32_t mi : sub) {
          while (i < full.size() && full[i] != mi) ++i;
          if (i == full.size()) {
            return fail(
                StreamErrorKind::kCorruptIndex,
                ".sgsc tier table is not a subsequence of the group index");
          }
          ++i;
        }
      }
    }

    // Reassemble the resident spatial index.
    std::vector<voxel::RawVoxelId> raw_ids(n_groups);
    std::vector<std::vector<std::uint32_t>> residents(n_groups);
    for (std::uint32_t v = 0; v < n_groups; ++v) {
      raw_ids[v] = directory_[v].raw_id;
      const auto span = group_indices(static_cast<voxel::DenseVoxelId>(v));
      residents[v].assign(span.begin(), span.end());
    }
    grid_ = voxel::VoxelGrid::assemble(gc, raw_ids, residents,
                                       gaussian_count_);
  } catch (const StreamException& e) {
    if (error != nullptr) *error = e.error();
    return false;
  } catch (const std::exception& e) {
    // A transport fault mid-parse (network timeout, short transfer) is the
    // backend's typed error, not a corrupt-section misdiagnosis.
    if (sbuf.last_error().has_value()) {
      if (error != nullptr) {
        *error = *sbuf.last_error();
        error->detail += " (while reading .sgsc metadata)";
      }
      return false;
    }
    return fail(section, e.what());
  }
  if (sbuf.last_error().has_value()) {
    if (error != nullptr) {
      *error = *sbuf.last_error();
      error->detail += " (while reading .sgsc metadata)";
    }
    return false;
  }
  return true;
}

std::span<const std::uint32_t> AssetStore::group_indices(
    voxel::DenseVoxelId v, int tier) const {
  const auto& offsets = index_offsets_[static_cast<std::size_t>(tier)];
  const auto& table = index_table_[static_cast<std::size_t>(tier)];
  const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
  const auto e =
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
  return {table.data() + b, e - b};
}

StreamResult<DecodedGroup> AssetStore::read_group_checked(voxel::DenseVoxelId v,
                                                          int tier) const {
  auto fail = [&](StreamErrorKind kind, std::string detail) {
    return StreamResult<DecodedGroup>(
        StreamError{kind, static_cast<std::int64_t>(v), tier,
                    std::move(detail)});
  };
  try {
    return read_group_impl(v, tier);
  } catch (const StreamException& e) {
    return StreamResult<DecodedGroup>(e.error());
  } catch (const std::exception& e) {
    // Allocation or any other decode-side failure: still a per-group,
    // per-tier recoverable event, never a process-level one.
    return fail(StreamErrorKind::kDecode, e.what());
  }
}

DecodedGroup AssetStore::read_group_impl(voxel::DenseVoxelId v,
                                         int tier) const {
  auto fail = [&](StreamErrorKind kind, const char* detail) -> StreamException {
    return StreamException(StreamError{kind, static_cast<std::int64_t>(v),
                                       tier, detail});
  };
  if (tier < 0 || tier >= tier_count_ ||
      static_cast<std::size_t>(v) >= directory_.size()) {
    throw fail(StreamErrorKind::kDecode, "group/tier out of range");
  }
  const TierExtent& e = tier_extent(v, tier);
  std::vector<char> buf(static_cast<std::size_t>(e.bytes));
  StreamResult<FetchInfo> read =
      backend_->read_range(e.offset, std::span<char>(buf.data(), buf.size()));
  if (!read.ok()) {
    // Re-scope the transport's store-level error with the group+tier the
    // cache needs for retry/backoff/degraded bookkeeping.
    StreamError err = read.take_error();
    err.group = static_cast<std::int64_t>(v);
    err.tier = tier;
    throw StreamException(std::move(err));
  }
  if (read.value().bytes != e.bytes) {
    // A backend that reports success but delivered fewer bytes than the
    // directory extent is still a short read mid-payload — map it to
    // kIoRead here rather than letting the decoder misreport it.
    throw fail(StreamErrorKind::kIoRead, "truncated .sgsc payload");
  }
  const std::uint64_t fetch_ns = read.value().elapsed_ns;

  // Decode bracket: the thread-local counter lets the group pipeline split
  // a synchronous acquire into its fetch vs decode shares (the trace shows
  // the whole miss as the cache's one `fetch` span). Throwing paths skip
  // the accumulation — an errored decode produces no payload to attribute.
  const std::uint64_t decode_t0 = core::stage_clock_ns();
  DecodedGroup group;
  group.model_indices = group_indices(v, tier);
  group.payload_bytes = e.bytes;
  group.fetch_ns = fetch_ns;
  group.tier = tier;
  gs::GaussianColumns& cols = group.cols;
  cols.resize(e.count);  // freshly sized columns are zero-filled
  const int sh_n = tier_sh_[static_cast<std::size_t>(tier)];
  const char* p = buf.data();
  if (vq_) {
    // Pass 1: peel the per-record floats into their columns and stash the
    // u16 codebook indices widened to u32 (the batched gather's index type),
    // validating each against its codebook before any lookup.
    std::vector<std::uint32_t> si(e.count), ri(e.count), di(e.count), hi;
    if (sh_n > 1) hi.resize(e.count);
    for (std::uint32_t k = 0; k < e.count; ++k) {
      cols.px[k] = peel<float>(p);
      cols.py[k] = peel<float>(p);
      cols.pz[k] = peel<float>(p);
      cols.opacity[k] = peel<float>(p);
      si[k] = peel<std::uint16_t>(p);
      ri[k] = peel<std::uint16_t>(p);
      di[k] = peel<std::uint16_t>(p);
      if (si[k] >= scale_cb_.size() || ri[k] >= rotation_cb_.size() ||
          di[k] >= dc_cb_.size()) {
        throw fail(StreamErrorKind::kCorruptPayload,
                   ".sgsc payload index out of codebook range");
      }
      if (sh_n > 1) {
        hi[k] = peel<std::uint16_t>(p);
        if (hi[k] >= sh_cb_.size()) {
          throw fail(StreamErrorKind::kCorruptPayload,
                     ".sgsc payload index out of codebook range");
        }
      }
    }
    // Pass 2: one batched gather per codebook column — the whole group's
    // lookups for one parameter as a single strided sweep (8 records per
    // AVX2 gather). Pure copies of the same entries QuantizedModel::decode
    // reads, so a cached group stays bit-identical to the prepared scene's
    // grouped columns. Tiers with truncated SH leave the AC tail at its
    // zero fill.
    const float* scale_raw = scale_cb_.raw().data();
    const std::size_t scale_dim = scale_cb_.dim();
    gs::gather_codebook_column(cols.sx.data(), 1, scale_raw, si.data(),
                               e.count, scale_dim, 0);
    gs::gather_codebook_column(cols.sy.data(), 1, scale_raw, si.data(),
                               e.count, scale_dim, 1);
    gs::gather_codebook_column(cols.sz.data(), 1, scale_raw, si.data(),
                               e.count, scale_dim, 2);
    const float* rot_raw = rotation_cb_.raw().data();
    const std::size_t rot_dim = rotation_cb_.dim();
    gs::gather_codebook_column(cols.rw.data(), 1, rot_raw, ri.data(), e.count,
                               rot_dim, 0);
    gs::gather_codebook_column(cols.rx.data(), 1, rot_raw, ri.data(), e.count,
                               rot_dim, 1);
    gs::gather_codebook_column(cols.ry.data(), 1, rot_raw, ri.data(), e.count,
                               rot_dim, 2);
    gs::gather_codebook_column(cols.rz.data(), 1, rot_raw, ri.data(), e.count,
                               rot_dim, 3);
    const std::size_t sh_stride = static_cast<std::size_t>(gs::kShCoeffCount);
    const float* dc_raw = dc_cb_.raw().data();
    const std::size_t dc_dim = dc_cb_.dim();
    gs::gather_codebook_column(cols.sh_r.data(), sh_stride, dc_raw, di.data(),
                               e.count, dc_dim, 0);
    gs::gather_codebook_column(cols.sh_g.data(), sh_stride, dc_raw, di.data(),
                               e.count, dc_dim, 1);
    gs::gather_codebook_column(cols.sh_b.data(), sh_stride, dc_raw, di.data(),
                               e.count, dc_dim, 2);
    if (sh_n > 1) {
      const float* sh_raw = sh_cb_.raw().data();
      const std::size_t sh_dim = sh_cb_.dim();
      for (int c = 1; c < gs::kShCoeffCount; ++c) {
        const std::size_t off = static_cast<std::size_t>(c - 1) * 3;
        gs::gather_codebook_column(cols.sh_r.data() + c, sh_stride, sh_raw,
                                   hi.data(), e.count, sh_dim, off);
        gs::gather_codebook_column(cols.sh_g.data() + c, sh_stride, sh_raw,
                                   hi.data(), e.count, sh_dim, off + 1);
        gs::gather_codebook_column(cols.sh_b.data() + c, sh_stride, sh_raw,
                                   hi.data(), e.count, sh_dim, off + 2);
      }
    }
    for (std::uint32_t k = 0; k < e.count; ++k) {
      cols.max_scale[k] =
          std::max(cols.sx[k], std::max(cols.sy[k], cols.sz[k]));
    }
  } else {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      cols.px[k] = peel<float>(p);
      cols.py[k] = peel<float>(p);
      cols.pz[k] = peel<float>(p);
      cols.sx[k] = peel<float>(p);
      cols.sy[k] = peel<float>(p);
      cols.sz[k] = peel<float>(p);
      cols.rw[k] = peel<float>(p);
      cols.rx[k] = peel<float>(p);
      cols.ry[k] = peel<float>(p);
      cols.rz[k] = peel<float>(p);
      cols.opacity[k] = peel<float>(p);
      const std::size_t base =
          static_cast<std::size_t>(k) * static_cast<std::size_t>(gs::kShCoeffCount);
      for (int c = 0; c < sh_n; ++c) {
        cols.sh_r[base + static_cast<std::size_t>(c)] = peel<float>(p);
        cols.sh_g[base + static_cast<std::size_t>(c)] = peel<float>(p);
        cols.sh_b[base + static_cast<std::size_t>(c)] = peel<float>(p);
      }
      // SH tail past sh_n stays at the resize() zero fill.
      cols.max_scale[k] =
          std::max(cols.sx[k], std::max(cols.sy[k], cols.sz[k]));
    }
  }
  core::thread_decode_ns() += core::stage_clock_ns() - decode_t0;
  return group;
}

}  // namespace sgs::stream
