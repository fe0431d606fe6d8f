// Tests for the out-of-core streaming subsystem (src/stream/): the .sgsc
// asset store round-trip (v1 and tiered v2, including a frozen v1 fixture),
// residency-cache LRU/pinning/tier/determinism semantics, LOD tier
// selection, the prefetching loader, the async pool lane, and — the
// acceptance bar — golden proofs that cache-backed rendering is
// bit-identical to fully resident rendering (with LOD forced to L0) while
// actually exercising misses and evictions, and that adaptive tiers hold a
// PSNR bound while fetching fewer bytes.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "scene/generator.hpp"
#include "stream/asset_store.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"
#include "stream_fault_testutil.hpp"

namespace sgs::stream {
namespace {

gs::GaussianModel test_model(std::uint64_t seed, std::size_t count) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = count;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = seed;
  return scene::generate_scene(cfg);
}

core::StreamingScene test_scene(const gs::GaussianModel& model, bool vq) {
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = vq;
  if (vq) {
    // Small books keep training fast; the format does not care.
    cfg.vq.scale_entries = 64;
    cfg.vq.rotation_entries = 64;
    cfg.vq.dc_entries = 64;
    cfg.vq.sh_entries = 32;
    cfg.vq.kmeans_iters = 4;
    cfg.vq.refine_iters = 1;
  }
  return core::StreamingScene::prepare(model, cfg);
}

core::StreamingScene test_scene(std::uint64_t seed, std::size_t count,
                                bool vq) {
  return test_scene(test_model(seed, count), vq);
}

// The record a prepared scene renders for model index mi: the VQ-decoded
// record when the scene is quantized, the source record otherwise.
gs::Gaussian scene_record(const core::StreamingScene& scene,
                          const gs::GaussianModel& model, std::uint32_t mi) {
  return scene.quantized() != nullptr ? scene.quantized()->decode(mi)
                                      : model.gaussians[mi];
}

gs::Camera test_camera(int size = 128) {
  return gs::Camera::look_at({0, 0, -6}, {0, 0, 0}, {0, 1, 0}, 0.9f, size,
                             size);
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& p) : path(p) {}
  ~TempFile() { std::remove(path.c_str()); }
};

bool gaussians_equal(const gs::Gaussian& a, const gs::Gaussian& b) {
  return a.position == b.position && a.scale == b.scale &&
         a.rotation == b.rotation && a.opacity == b.opacity && a.sh == b.sh;
}

// ------------------------------------------------------------- AssetStore --

void expect_store_matches_scene(const AssetStore& store,
                                const core::StreamingScene& scene,
                                const gs::GaussianModel& model) {
  const voxel::VoxelGrid& g0 = scene.grid();
  const voxel::VoxelGrid& g1 = store.grid();
  ASSERT_EQ(g1.voxel_count(), g0.voxel_count());
  ASSERT_EQ(g1.gaussian_count(), g0.gaussian_count());
  EXPECT_EQ(g1.config().origin, g0.config().origin);
  EXPECT_EQ(g1.config().dims, g0.config().dims);
  EXPECT_EQ(g1.config().voxel_size, g0.config().voxel_size);

  for (voxel::DenseVoxelId v = 0; v < g0.voxel_count(); ++v) {
    // Spatial index round-trips exactly.
    ASSERT_EQ(g1.raw_of_dense(v), g0.raw_of_dense(v));
    const auto r0 = g0.gaussians_in(v);
    const auto r1 = g1.gaussians_in(v);
    ASSERT_EQ(r1.size(), r0.size());
    for (std::size_t k = 0; k < r0.size(); ++k) EXPECT_EQ(r1[k], r0[k]);

    // Decoded payloads reproduce the rendered records bit-for-bit.
    const DecodedGroup group = faulttest::read_ok(store, v);
    ASSERT_EQ(group.size(), r0.size());
    for (std::size_t k = 0; k < r0.size(); ++k) {
      EXPECT_EQ(group.model_indices[k], r0[k]);
      const gs::Gaussian expect = scene_record(scene, model, r0[k]);
      EXPECT_TRUE(gaussians_equal(group.gaussian(k), expect));
      EXPECT_EQ(group.max_scale(k), expect.max_scale());
    }
  }
}

TEST(AssetStore, RawRoundTripIsBitExact) {
  const auto model = test_model(7, 3000);
  const auto scene = test_scene(model, /*vq=*/false);
  TempFile file("/tmp/sgs_test_raw.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));

  AssetStore store(file.path);
  EXPECT_FALSE(store.vector_quantized());
  EXPECT_EQ(store.payload_bytes_total(),
            scene.grid().gaussian_count() * 236u);
  expect_store_matches_scene(store, scene, model);

  const auto scene_ooc = store.make_scene();
  EXPECT_FALSE(scene_ooc.params_resident());
  EXPECT_EQ(scene_ooc.config().group_size, scene.config().group_size);
  EXPECT_EQ(scene_ooc.layout().total_bytes(), scene.layout().total_bytes());
}

TEST(AssetStore, VqRoundTripIsBitExact) {
  const auto model = test_model(8, 2000);
  const auto scene = test_scene(model, /*vq=*/true);
  TempFile file("/tmp/sgs_test_vq.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));

  AssetStore store(file.path);
  EXPECT_TRUE(store.vector_quantized());
  EXPECT_EQ(store.payload_bytes_total(), scene.grid().gaussian_count() * 24u);
  expect_store_matches_scene(store, scene, model);
}

TEST(AssetStore, RejectsGarbageAndTruncation) {
  TempFile file("/tmp/sgs_test_bad.sgsc");
  {
    std::ofstream out(file.path, std::ios::binary);
    out.write("not a store at all", 18);
  }
  EXPECT_THROW(AssetStore store(file.path), std::runtime_error);

  const auto scene = test_scene(9, 500, /*vq=*/false);
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  std::ifstream in(file.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Cut the file mid-payload: the metadata still parses, but the directory
  // now references payloads beyond EOF — open fails fast instead of letting
  // a later read_group decode garbage.
  {
    std::ofstream out(file.path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(AssetStore store(file.path), std::runtime_error);

  // Cut inside the metadata: open fails while parsing the header.
  {
    std::ofstream out(file.path, std::ios::binary);
    out.write(bytes.data(), 40);
  }
  EXPECT_THROW(AssetStore store(file.path), std::runtime_error);
}

// ------------------------------------------------------- tiered stores --

// Importance the writer prunes by, recomputed independently of the store.
std::vector<float> group_importance(const core::StreamingScene& scene,
                                    const gs::GaussianModel& model,
                                    std::span<const std::uint32_t> residents) {
  std::vector<float> imp;
  imp.reserve(residents.size());
  for (const std::uint32_t mi : residents) {
    const gs::Gaussian g = scene_record(scene, model, mi);
    imp.push_back(g.opacity * g.max_scale());
  }
  return imp;
}

// The opacity-compensation factor the writer applies to a pruned tier.
float opacity_comp(const core::StreamingScene& scene,
                   const gs::GaussianModel& model,
                   std::span<const std::uint32_t> full,
                   std::span<const std::uint32_t> kept) {
  float full_mass = 0.0f, kept_mass = 0.0f;
  for (const std::uint32_t mi : full) {
    full_mass += scene_record(scene, model, mi).opacity;
  }
  for (const std::uint32_t mi : kept) {
    kept_mass += scene_record(scene, model, mi).opacity;
  }
  return kept_mass > 0.0f ? std::clamp(full_mass / kept_mass, 1.0f, 2.0f)
                          : 1.0f;
}

TEST(AssetStore, TieredStoreRoundTripsAllTiers) {
  const auto model = test_model(21, 3000);
  const auto scene = test_scene(model, /*vq=*/false);
  TempFile file("/tmp/sgs_test_tiered.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;  // default tier specs: L1 = SH4, L2 = DC + prune
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));

  AssetStore store(file.path);
  EXPECT_EQ(store.tier_count(), 3);
  EXPECT_EQ(store.tier_sh_coeffs(0), gs::kShCoeffCount);
  EXPECT_EQ(store.tier_sh_coeffs(1), 4);
  EXPECT_EQ(store.tier_sh_coeffs(2), 1);
  // Tier 0 is the full-fidelity scene of v1.
  EXPECT_EQ(store.payload_bytes_total(),
            scene.grid().gaussian_count() * 236u);
  expect_store_matches_scene(store, scene, model);
  // Degraded tiers shrink on disk, in order (92 B and 56 B records).
  EXPECT_LT(store.payload_bytes_tier(1), store.payload_bytes_tier(0));
  EXPECT_LT(store.payload_bytes_tier(2), store.payload_bytes_tier(1));

  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    const auto full = store.group_indices(v, 0);
    const std::vector<float> imp = group_importance(scene, model, full);
    std::uint32_t prev = store.tier_extent(v, 0).count;
    ASSERT_EQ(prev, full.size());
    for (int t = 1; t < 3; ++t) {
      const TierExtent& x = store.tier_extent(v, t);
      const int sh_n = store.tier_sh_coeffs(t);
      // Monotone non-increasing, never empty for a non-empty group.
      EXPECT_LE(x.count, prev);
      if (prev > 0) {
        EXPECT_GE(x.count, 1u);
      }
      prev = x.count;
      EXPECT_EQ(x.bytes,
                x.count * (11u + 3u * static_cast<std::uint32_t>(sh_n)) * 4u);

      // The tier keeps exactly the top-count importances of the group.
      const auto sub = store.group_indices(v, t);
      ASSERT_EQ(sub.size(), x.count);
      std::vector<float> all_sorted = imp;
      std::sort(all_sorted.begin(), all_sorted.end(), std::greater<float>());
      std::vector<float> sub_imp = group_importance(scene, model, sub);
      std::sort(sub_imp.begin(), sub_imp.end(), std::greater<float>());
      for (std::size_t k = 0; k < sub_imp.size(); ++k) {
        EXPECT_EQ(sub_imp[k], all_sorted[k]);
      }

      // Decoded tier records: exact geometry, SH truncated to the tier's
      // band (zero tail), opacity scaled by the group's compensation.
      const float comp = opacity_comp(scene, model, full, sub);
      const DecodedGroup group = faulttest::read_ok(store, v, t);
      EXPECT_EQ(group.tier, t);
      EXPECT_EQ(group.payload_bytes, x.bytes);
      ASSERT_EQ(group.size(), sub.size());
      for (std::size_t k = 0; k < sub.size(); ++k) {
        EXPECT_EQ(group.model_indices[k], sub[k]);
        const gs::Gaussian& expect = model.gaussians[sub[k]];
        const gs::Gaussian got = group.gaussian(k);
        EXPECT_EQ(got.position, expect.position);
        EXPECT_EQ(got.scale, expect.scale);
        EXPECT_EQ(got.rotation, expect.rotation);
        EXPECT_EQ(got.opacity, std::min(1.0f, expect.opacity * comp));
        for (int c = 0; c < gs::kShCoeffCount; ++c) {
          const Vec3f want =
              c < sh_n ? expect.sh[static_cast<std::size_t>(c)]
                       : Vec3f{0.0f, 0.0f, 0.0f};
          EXPECT_EQ(got.sh[static_cast<std::size_t>(c)], want);
        }
      }
    }
  }
}

TEST(AssetStore, TieredVqStoreRoundTrips) {
  const auto model = test_model(22, 2000);
  const auto scene = test_scene(model, /*vq=*/true);
  TempFile file("/tmp/sgs_test_tiered_vq.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 2;
  // VQ records cannot truncate mid-codebook: DC-only (drops the 2-byte SH
  // index) plus pruning is the VQ degradation axis.
  wopts.tiers[1] = TierSpec{0.6f, 1};
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));

  AssetStore store(file.path);
  EXPECT_EQ(store.tier_count(), 2);
  EXPECT_TRUE(store.vector_quantized());
  EXPECT_EQ(store.payload_bytes_total(), scene.grid().gaussian_count() * 24u);
  expect_store_matches_scene(store, scene, model);
  const vq::QuantizedModel& qm = *scene.quantized();
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    const auto full = store.group_indices(v, 0);
    const auto sub = store.group_indices(v, 1);
    EXPECT_EQ(store.tier_extent(v, 1).bytes, sub.size() * 22u);
    const float comp = opacity_comp(scene, model, full, sub);
    const DecodedGroup group = faulttest::read_ok(store, v, 1);
    ASSERT_EQ(group.size(), sub.size());
    for (std::size_t k = 0; k < sub.size(); ++k) {
      const gs::Gaussian expect = qm.decode(sub[k]);
      const gs::Gaussian got = group.gaussian(k);
      EXPECT_EQ(got.position, expect.position);
      EXPECT_EQ(got.scale, expect.scale);
      EXPECT_EQ(got.rotation, expect.rotation);
      EXPECT_EQ(got.opacity, std::min(1.0f, expect.opacity * comp));
      EXPECT_EQ(got.sh[0], expect.sh[0]);  // DC survives via its codebook
      for (int c = 1; c < gs::kShCoeffCount; ++c) {
        EXPECT_EQ(got.sh[static_cast<std::size_t>(c)],
                  (Vec3f{0.0f, 0.0f, 0.0f}));
      }
    }
  }
}

// A tier that degrades nothing must not duplicate payload bytes: VQ
// records keep their full 24 B (the SH index decodes the whole codebook
// entry) for any sh_coeffs > 1, so the default L1 spec aliases L0.
TEST(AssetStore, NoOpVqTierAliasesThePayloadAbove) {
  const auto scene = test_scene(29, 1500, /*vq=*/true);
  const vq::QuantizedModel& qm = *scene.quantized();
  TempFile file("/tmp/sgs_test_vq_alias.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;  // defaults: L1 {keep 1, sh 4} is a VQ no-op
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));

  AssetStore store(file.path);
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    // L1 shares L0's payload bytes exactly...
    EXPECT_EQ(store.tier_extent(v, 1).offset, store.tier_extent(v, 0).offset);
    EXPECT_EQ(store.tier_extent(v, 1).bytes, store.tier_extent(v, 0).bytes);
    // ...while the genuinely degraded L2 has its own.
    if (store.tier_extent(v, 2).count > 0) {
      EXPECT_NE(store.tier_extent(v, 2).offset,
                store.tier_extent(v, 0).offset);
    }
  }
  // Aliased or not, both tiers decode bit-identically to the scene.
  const DecodedGroup g1 = faulttest::read_ok(store, 0, 1);
  const auto full = store.group_indices(0, 0);
  ASSERT_EQ(g1.size(), full.size());
  for (std::size_t k = 0; k < full.size(); ++k) {
    EXPECT_TRUE(gaussians_equal(g1.gaussian(k), qm.decode(full[k])));
  }
}

TEST(AssetStore, RejectsBadTierOptions) {
  const auto scene = test_scene(23, 300, /*vq=*/false);
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 0;
  EXPECT_FALSE(AssetStore::write("/tmp/sgs_test_bad_tiers.sgsc", scene, wopts));
  wopts.tier_count = kLodTierCount + 1;
  EXPECT_FALSE(AssetStore::write("/tmp/sgs_test_bad_tiers.sgsc", scene, wopts));
}

// ---------------------------------------------------------- v1 fixture --

// The frozen-fixture scene: literal parameters only (no transcendental
// math), so the v1 writer's bytes are platform-independent and the
// checked-in file stays byte-exact forever.
gs::GaussianModel fixture_model() {
  gs::GaussianModel m;
  auto add = [&m](float x, float y, float z, float s, float o) {
    gs::Gaussian g;
    g.position = {x, y, z};
    g.scale = {s, s * 0.5f, s * 0.25f};
    g.rotation = {1.0f, 0.0f, 0.0f, 0.0f};
    g.opacity = o;
    for (int c = 0; c < gs::kShCoeffCount; ++c) {
      g.sh[static_cast<std::size_t>(c)] = {0.5f, 0.25f, 0.125f};
    }
    m.gaussians.push_back(g);
  };
  add(0.25f, 0.25f, 0.25f, 0.5f, 0.875f);
  add(0.75f, 0.5f, 0.25f, 0.25f, 0.5f);
  add(1.5f, 0.5f, 0.5f, 0.125f, 0.75f);
  add(1.25f, 1.75f, 0.5f, 0.375f, 0.25f);
  add(2.5f, 2.5f, 2.25f, 0.0625f, 1.0f);
  return m;
}

core::StreamingScene fixture_scene() {
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  return core::StreamingScene::prepare(fixture_model(), cfg);
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Backward compatibility, pinned by a checked-in binary: the v2 reader
// must load a frozen v1 file bit-identically to what today's v1 writer
// round-trips — if either the writer or the reader drifts, this fails.
TEST(AssetStore, FrozenV1FixtureLoadsBitIdentically) {
  const std::string fixture =
      std::string(SGS_SOURCE_DIR) + "/tests/data/sgsc_v1_fixture.sgsc";
  const auto scene = fixture_scene();

  // Today's writer with tier_count == 1 must still emit exactly the
  // frozen v1 bytes...
  TempFile rewrite("/tmp/sgs_test_fixture_rewrite.sgsc");
  ASSERT_TRUE(AssetStore::write(rewrite.path, scene));
  EXPECT_EQ(read_all(rewrite.path), read_all(fixture));

  // ...and today's (v2-capable) reader must load the frozen file as a
  // single-tier store that decodes bit-identically to the scene.
  AssetStore store(fixture);
  EXPECT_EQ(store.tier_count(), 1);
  EXPECT_FALSE(store.vector_quantized());
  expect_store_matches_scene(store, scene, fixture_model());
}

TEST(AssetStore, WriteRequiresResidentParams) {
  const auto scene = test_scene(10, 400, /*vq=*/false);
  TempFile file("/tmp/sgs_test_parts.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  // A scene assembled from store metadata has no parameters to serialize.
  EXPECT_FALSE(AssetStore::write("/tmp/sgs_test_parts2.sgsc",
                                 store.make_scene()));
}

// --------------------------------------------------------- ResidencyCache --

// One Gaussian per voxel in a row of voxels: every group decodes to the
// same resident size, so eviction arithmetic is exact.
core::StreamingScene uniform_groups_scene(int n_groups) {
  gs::GaussianModel m;
  for (int i = 0; i < n_groups; ++i) {
    gs::Gaussian g;
    g.position = {static_cast<float>(i) + 0.5f, 0.5f, 0.5f};
    m.gaussians.push_back(g);
  }
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  return core::StreamingScene::prepare(m, cfg);
}

TEST(ResidencyCache, HitsMissesAndLruEviction) {
  const auto scene = uniform_groups_scene(8);
  TempFile file("/tmp/sgs_test_cache.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ASSERT_EQ(store.group_count(), 8);

  // Budget: exactly two decoded groups (all groups are the same size).
  const std::uint64_t unit = faulttest::read_ok(store, 0).resident_bytes();
  ResidencyCacheConfig cfg;
  cfg.budget_bytes = 2 * unit;
  ResidencyCache cache(store, cfg);

  auto touch = [&cache](voxel::DenseVoxelId v) {
    cache.acquire_outcome(v);
    cache.release(v);
  };

  touch(0);  // miss
  touch(0);  // hit
  touch(1);  // miss
  touch(2);  // miss; evicts 0 (the least recently used)
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(cache.resident_bytes(), cfg.budget_bytes);
  EXPECT_FALSE(cache.resident(0));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));

  // LRU order respects touches: re-warming 1 makes 2 the next victim.
  touch(1);  // hit: still resident
  touch(3);  // miss; evicts 2
  EXPECT_TRUE(cache.resident(1));
  EXPECT_FALSE(cache.resident(2));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().bytes_fetched, 4 * store.tier_extent(0, 0).bytes);
}

TEST(ResidencyCache, DeterministicUnderFixedRequestTrace) {
  const auto scene = test_scene(12, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_det.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  const int n = store.group_count();
  ASSERT_GE(n, 3);

  // A fixed pseudo-random request trace, replayed on two fresh caches with
  // the same budget: every counter and the final resident set must agree.
  std::vector<voxel::DenseVoxelId> trace;
  std::uint64_t x = 12345;
  for (int i = 0; i < 400; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    trace.push_back(static_cast<voxel::DenseVoxelId>((x >> 33) % n));
  }

  ResidencyCacheConfig cfg;
  cfg.budget_bytes = store.payload_bytes_total() / 3;
  auto run = [&](ResidencyCache& cache) {
    for (const voxel::DenseVoxelId v : trace) {
      cache.acquire_outcome(v);
      cache.release(v);
    }
    return cache.stats();
  };

  ResidencyCache a(store, cfg), b(store, cfg);
  const auto sa = run(a);
  const auto sb = run(b);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_EQ(sa.bytes_fetched, sb.bytes_fetched);
  EXPECT_EQ(sa.hits + sa.misses, trace.size());
  EXPECT_GT(sa.evictions, 0u);
  for (voxel::DenseVoxelId v = 0; v < n; ++v) {
    EXPECT_EQ(a.resident(v), b.resident(v));
  }
}

TEST(ResidencyCache, PlanPinsBlockEvictionUntilEndFrame) {
  const auto scene = test_scene(13, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_pin.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ASSERT_GE(store.group_count(), 3);

  ResidencyCacheConfig cfg;
  cfg.budget_bytes = 1;  // nothing fits: everything unpinned is evicted
  ResidencyCache cache(store, cfg);

  const std::vector<voxel::DenseVoxelId> pinned = {0, 1};
  cache.pin_plan(pinned);
  cache.acquire_outcome(0);
  cache.release(0);
  cache.acquire_outcome(1);
  cache.release(1);
  // Both released and far over budget, yet plan-pinned: still resident.
  EXPECT_TRUE(cache.resident(0));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.unpin_plan(pinned);  // pins drop; the overshoot drains
  EXPECT_FALSE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// Eviction is strict LRU over the unprotected groups: the oldest groups
// sit plan-pinned at the tail and one acquire is held open, so every pass
// must reach past them to the oldest unprotected group — in the frame and
// again at unpin_plan's drain.
TEST(ResidencyCache, EvictsOldestUnprotectedPastPinnedTail) {
  const auto scene = uniform_groups_scene(8);
  TempFile file("/tmp/sgs_test_evict_order.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ASSERT_EQ(store.group_count(), 8);

  const std::uint64_t unit = faulttest::read_ok(store, 0).resident_bytes();
  ResidencyCacheConfig cfg;
  cfg.budget_bytes = 3 * unit;
  ResidencyCache cache(store, cfg);
  auto touch = [&cache](voxel::DenseVoxelId v) {
    EXPECT_TRUE(cache.acquire_outcome(v).missed) << "group " << v;
    cache.release(v);
  };
  auto resident_set = [&cache] {
    std::vector<voxel::DenseVoxelId> out;
    for (voxel::DenseVoxelId v = 0; v < 8; ++v) {
      if (cache.resident(v)) out.push_back(v);
    }
    return out;
  };
  using Set = std::vector<voxel::DenseVoxelId>;

  touch(0);
  touch(1);
  touch(2);  // LRU, oldest first: 0 1 2
  const Set plan = {0, 1, 4, 5};
  cache.pin_plan(plan);
  EXPECT_FALSE(cache.acquire_outcome(2).missed);  // held open to the end

  touch(3);  // 4 over a budget of 3, but 0 1 2 3 are all protected
  EXPECT_EQ(resident_set(), (Set{0, 1, 2, 3}));
  EXPECT_EQ(cache.stats().evictions, 0u);
  touch(4);  // past the protected 0 1 2: victim 3
  EXPECT_EQ(resident_set(), (Set{0, 1, 2, 4}));
  touch(6);  // 0 1 2 4 protected, 6 pinned by its own acquire: no victim
  EXPECT_EQ(resident_set(), (Set{0, 1, 2, 4, 6}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  touch(5);  // oldest unprotected is 6
  EXPECT_EQ(resident_set(), (Set{0, 1, 2, 4, 5}));
  EXPECT_EQ(cache.stats().evictions, 2u);

  // The drain frees 0 1 4 5 and takes the two oldest, passing the held 2.
  cache.unpin_plan(plan);
  EXPECT_EQ(resident_set(), (Set{2, 4, 5}));
  EXPECT_EQ(cache.stats().evictions, 4u);
  cache.release(2);
  EXPECT_EQ(cache.resident_bytes(), cfg.budget_bytes);
}

TEST(ResidencyCache, PrefetchCountsSeparatelyFromMisses) {
  const auto scene = test_scene(14, 1500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_pf.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ResidencyCache cache(store, {});

  EXPECT_EQ(cache.prefetch_checked(0), PrefetchResult::kFetched);
  // Already resident.
  EXPECT_NE(cache.prefetch_checked(0), PrefetchResult::kFetched);
  cache.acquire_outcome(0);
  cache.release(0);
  const auto s = cache.stats();
  EXPECT_EQ(s.prefetches, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.bytes_fetched, store.tier_extent(0, 0).bytes);
}

TEST(ResidencyCache, TierUpgradeRefetchesOnlyThatGroup) {
  const auto scene = test_scene(24, 3000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_tier_cache.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);

  // A group where the tiers actually differ in size.
  voxel::DenseVoxelId v = -1;
  for (voxel::DenseVoxelId i = 0; i < store.group_count(); ++i) {
    if (store.tier_extent(i, 2).count < store.tier_extent(i, 0).count) {
      v = i;
      break;
    }
  }
  ASSERT_GE(v, 0) << "scene has no group with a pruned tier";

  ResidencyCache cache(store, {});
  // First touch at L2: a plain miss that fetches the pruned payload.
  const AcquireOutcome o2 = cache.acquire_outcome(v, 2);
  EXPECT_TRUE(o2.missed);
  EXPECT_FALSE(o2.upgraded);
  EXPECT_EQ(o2.served_tier, 2);
  EXPECT_EQ(o2.bytes_fetched, store.tier_extent(v, 2).bytes);
  EXPECT_EQ(o2.view.size(), store.tier_extent(v, 2).count);
  cache.release(v);
  EXPECT_EQ(cache.resident_tier(v), 2);

  // A resident L2 satisfies an L2-or-worse request without fetching...
  const AcquireOutcome o2b = cache.acquire_outcome(v, 2);
  EXPECT_FALSE(o2b.missed);
  EXPECT_EQ(o2b.served_tier, 2);
  cache.release(v);

  // ...but an L0 request refetches only this group (an upgrade).
  const AcquireOutcome o0 = cache.acquire_outcome(v, 0);
  EXPECT_TRUE(o0.missed);
  EXPECT_TRUE(o0.upgraded);
  EXPECT_EQ(o0.served_tier, 0);
  EXPECT_EQ(o0.bytes_fetched, store.tier_extent(v, 0).bytes);
  EXPECT_EQ(o0.view.size(), store.tier_extent(v, 0).count);
  cache.release(v);
  EXPECT_EQ(cache.resident_tier(v), 0);

  // Once upgraded, a worse request is a hit served at the better tier.
  const AcquireOutcome o1 = cache.acquire_outcome(v, 1);
  EXPECT_FALSE(o1.missed);
  EXPECT_EQ(o1.served_tier, 0);
  cache.release(v);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.upgrades, 1u);
  EXPECT_EQ(s.tier_misses[2], 1u);
  EXPECT_EQ(s.tier_misses[0], 1u);
  EXPECT_EQ(s.tier_hits[2], 1u);
  EXPECT_EQ(s.tier_hits[0], 1u);
  EXPECT_EQ(s.tier_bytes_fetched[0] + s.tier_bytes_fetched[2],
            s.bytes_fetched);
  // hits + misses still partitions the accesses under tiering.
  EXPECT_EQ(s.accesses(), 4u);
}

TEST(ResidencyCache, PrefetchUpgradesUnpinnedGroupsOnly) {
  const auto scene = test_scene(25, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_tier_pf.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);
  ResidencyCache cache(store, {});

  // Prefetch at L2, then an L0 prefetch upgrades in place.
  const auto fetched = PrefetchResult::kFetched;
  EXPECT_EQ(cache.prefetch_checked(0, 2), fetched);
  EXPECT_EQ(cache.resident_tier(0), 2);
  EXPECT_NE(cache.prefetch_checked(0, 2), fetched);  // already satisfied
  EXPECT_EQ(cache.prefetch_checked(0, 0), fetched);  // upgrade
  EXPECT_EQ(cache.resident_tier(0), 0);
  // Resident tier is better: no-op.
  EXPECT_NE(cache.prefetch_checked(0, 1), fetched);

  // A pinned group refuses the prefetch upgrade (it must not block the
  // async lane on the readers); demand acquire pays it after release.
  cache.acquire_outcome(1, 2);
  EXPECT_NE(cache.prefetch_checked(1, 0), fetched);
  EXPECT_EQ(cache.resident_tier(1), 2);
  cache.release(1);
  EXPECT_EQ(cache.prefetch_checked(1, 0), fetched);
  EXPECT_EQ(cache.resident_tier(1), 0);

  const auto s = cache.stats();
  // Three prefetches (group 0 twice, group 1 once); group 1's first touch
  // was a demand miss, not a prefetch.
  EXPECT_EQ(s.prefetches, 3u);
  EXPECT_EQ(s.tier_prefetches[2], 1u);
  EXPECT_EQ(s.tier_prefetches[0], 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.upgrades, 0u);  // upgrades counts demand refetches only
}

// -------------------------------------------------------------- LodPolicy --

TEST(LodPolicy, FootprintTiersAreMonotoneInDepth) {
  const auto scene = test_scene(26, 3000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_lod_sel.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);

  const gs::Camera cam = test_camera();
  FrameIntent intent;
  intent.camera = &cam;
  LodPolicy policy;
  policy.footprint_full_px = 40.0f;
  policy.footprint_half_px = 20.0f;

  // Tier must not improve with distance.
  struct DT {
    float depth;
    int tier;
  };
  std::vector<DT> picks;
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    const auto& e = store.entry(v);
    const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
    picks.push_back({(center - cam.position()).norm(),
                     select_group_tier(store, intent, v, policy)});
  }
  std::sort(picks.begin(), picks.end(),
            [](const DT& a, const DT& b) { return a.depth < b.depth; });
  // Footprint uses the nearest depth of the AABB, not the center distance,
  // so allow equal-depth jitter but require global near-low/far-high shape.
  EXPECT_LT(picks.front().tier, 2);
  EXPECT_GT(picks.back().tier, 0);

  // force_tier0 and single-tier clamping.
  LodPolicy forced = policy;
  forced.force_tier0 = true;
  LodPolicy shallow = policy;
  shallow.max_tier = 1;
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    EXPECT_EQ(select_group_tier(store, intent, v, forced), 0);
    EXPECT_LE(select_group_tier(store, intent, v, shallow), 1);
  }
}

TEST(LodPolicy, BudgetDemotesFarGroupsDeterministically) {
  const auto scene = test_scene(27, 3000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_lod_budget.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);

  const gs::Camera cam = test_camera();
  FrameIntent intent;
  intent.camera = &cam;
  std::vector<voxel::DenseVoxelId> plan(
      static_cast<std::size_t>(store.group_count()));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i] = static_cast<voxel::DenseVoxelId>(i);
  }

  LodPolicy generous;
  generous.footprint_full_px = 1.0f;  // everything wants L0...
  generous.footprint_half_px = 0.5f;
  LodPolicy tight = generous;
  tight.frame_fetch_budget_bytes = store.payload_bytes_total() / 10;

  const TierSelection base = select_frame_tiers(store, intent, plan, generous);
  EXPECT_EQ(base.demoted, 0u);
  EXPECT_EQ(base.histogram[0],
            static_cast<std::uint32_t>(store.group_count()));

  // ...but the byte budget demotes the far tail to max_tier.
  const TierSelection cut = select_frame_tiers(store, intent, plan, tight);
  EXPECT_GT(cut.demoted, 0u);
  EXPECT_GT(cut.histogram[2], 0u);
  EXPECT_LT(cut.histogram[0], base.histogram[0]);
  std::uint32_t covered = 0;
  for (const auto h : cut.histogram) covered += h;
  EXPECT_EQ(covered, static_cast<std::uint32_t>(plan.size()));

  // Near groups keep their tier; demotion eats from the far end: the
  // nearest plan group must still be L0 under the tight budget.
  voxel::DenseVoxelId nearest = plan[0];
  float best = 1e30f;
  for (const voxel::DenseVoxelId v : plan) {
    const auto& e = store.entry(v);
    const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
    const float d = (center - cam.position()).norm();
    if (d < best) {
      best = d;
      nearest = v;
    }
  }
  EXPECT_EQ(cut.tier_by_group[static_cast<std::size_t>(nearest)], 0);

  // Pure function of (camera, policy, store): two calls agree exactly.
  const TierSelection again = select_frame_tiers(store, intent, plan, tight);
  EXPECT_EQ(again.tier_by_group, cut.tier_by_group);
  EXPECT_EQ(again.demoted, cut.demoted);
}

TEST(LodPolicy, NamedPoliciesParse) {
  EXPECT_TRUE(lod_policy_from_name("off").force_tier0);
  EXPECT_TRUE(lod_policy_from_name("l0").force_tier0);
  EXPECT_LT(lod_policy_from_name("quality").footprint_full_px,
            lod_policy_from_name("balanced").footprint_full_px);
  EXPECT_GT(lod_policy_from_name("aggressive").footprint_full_px,
            lod_policy_from_name("balanced").footprint_full_px);
  EXPECT_THROW(lod_policy_from_name("warp9"), std::invalid_argument);
}

// -------------------------------------------------------- StreamingLoader --

TEST(StreamingLoader, RanksVisibleGroupsNearToFarUnderCaps) {
  const auto scene = test_scene(15, 3000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_rank.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ResidencyCache cache(store, {});

  PrefetchConfig pcfg;
  pcfg.max_groups_per_frame = 8;

  const gs::Camera cam = test_camera();
  FrameIntent intent;
  intent.camera = &cam;
  const auto batch = rank_prefetch_groups(cache, intent, pcfg);
  ASSERT_FALSE(batch.empty());
  EXPECT_LE(batch.size(), pcfg.max_groups_per_frame);

  // Near-to-far ordering; single-tier store means every request is L0.
  float prev = -1.0f;
  for (const PrefetchRequest& r : batch) {
    EXPECT_EQ(r.tier, 0);
    const auto& e = store.entry(r.id);
    const Vec3f center = (e.aabb_min + e.aabb_max) * 0.5f;
    const float d = (center - cam.position()).norm();
    EXPECT_GE(d, prev);
    prev = d;
  }

  // Resident groups drop out of the ranking.
  for (const PrefetchRequest& r : batch) cache.prefetch_checked(r.id);
  const auto batch2 = rank_prefetch_groups(cache, intent, pcfg);
  for (const PrefetchRequest& r : batch2) {
    EXPECT_FALSE(cache.resident(r.id));
  }
}

TEST(StreamingLoader, AsyncBeginFrameWarmsTheCache) {
  const auto scene = test_scene(16, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_warm.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ResidencyCache cache(store, {});
  StreamingLoader loader(cache);

  const gs::Camera cam = test_camera();
  FrameIntent intent;
  intent.camera = &cam;
  loader.begin_frame(intent, {});
  loader.wait_idle();
  loader.end_frame();
  const auto s = loader.stats();
  EXPECT_GT(s.prefetches, 0u);
  EXPECT_GT(s.bytes_fetched, 0u);
  EXPECT_EQ(s.misses, 0u);
}

// -------------------------------------------------------------- async lane --

TEST(AsyncLane, RunsTasksFifoAndWaitsIdle) {
  std::vector<int> order;
  std::atomic<int> sum{0};
  for (int i = 0; i < 16; ++i) {
    async_submit([i, &order, &sum] {
      order.push_back(i);  // single lane worker: no race on the vector
      sum += i;
    });
  }
  async_wait_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(sum.load(), 120);
}

// ------------------------------------------------- golden: OOC == resident --

std::vector<gs::Camera> orbit_trajectory(int frames, int size) {
  std::vector<gs::Camera> cams;
  for (int f = 0; f < frames; ++f) {
    const float t =
        0.6f * static_cast<float>(f) / static_cast<float>(frames);
    const float a = 6.2831853f * t;
    cams.push_back(gs::Camera::look_at(
        {6.0f * std::sin(a), 1.0f, -6.0f * std::cos(a)}, {0, 0, 0}, {0, 1, 0},
        0.9f, size, size));
  }
  return cams;
}

void golden_out_of_core(bool vq, int store_tiers = 1) {
  const auto scene = test_scene(vq ? 18 : 17, 2500, vq);
  TempFile file(vq ? "/tmp/sgs_test_golden_vq.sgsc"
                   : "/tmp/sgs_test_golden_raw.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = store_tiers;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);

  // Budget well below the scene so the walkthrough must evict and refetch.
  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  ResidencyCache cache(store, ccfg);
  PrefetchConfig pcfg;
  pcfg.synchronous = true;  // deterministic stats for the assertions below
  // On a multi-tier store, forcing L0 everywhere must restore the exact
  // resident pixels — the tentpole's bit-exactness invariant.
  pcfg.lod.force_tier0 = true;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();

  const auto cameras = orbit_trajectory(vq ? 3 : 6, 128);
  core::SequenceOptions seq;
  const auto resident = core::render_sequence(scene, cameras, seq);
  const auto ooc = core::render_sequence(scene_ooc, cameras, seq, &loader);

  ASSERT_EQ(ooc.frames.size(), resident.frames.size());
  core::StreamCacheStats total;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    const auto& a = resident.frames[f];
    const auto& b = ooc.frames[f];
    // The acceptance bar: bit-identical image bytes...
    EXPECT_EQ(a.image.pixels(), b.image.pixels()) << "frame " << f;
    // ...and identical streaming stats (same voxels, same survivors).
    EXPECT_EQ(a.stats.gaussians_streamed, b.stats.gaussians_streamed);
    EXPECT_EQ(a.stats.coarse_pass, b.stats.coarse_pass);
    EXPECT_EQ(a.stats.fine_pass, b.stats.fine_pass);
    EXPECT_EQ(a.stats.blend_ops, b.stats.blend_ops);
    EXPECT_EQ(a.stats.total_dram_bytes(), b.stats.total_dram_bytes());
    // Resident frames report no cache activity; OOC frames do.
    EXPECT_EQ(a.trace.cache.accesses(), 0u);
    EXPECT_GT(b.trace.cache.accesses(), 0u);
    total.accumulate(b.trace.cache);
  }
  // The walkthrough really was out of core: hits, misses, evictions, and
  // fetch traffic all non-zero under the 35% budget.
  EXPECT_GT(total.hit_rate(), 0.0);
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses + total.prefetches, 0u);
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.bytes_fetched, 0u);
}

TEST(OutOfCoreGolden, RawWalkthroughBitIdenticalWithEvictions) {
  golden_out_of_core(/*vq=*/false);
}

TEST(OutOfCoreGolden, VqWalkthroughBitIdenticalWithEvictions) {
  golden_out_of_core(/*vq=*/true);
}

TEST(OutOfCoreGolden, TieredStoreForcedL0RawStaysBitIdentical) {
  golden_out_of_core(/*vq=*/false, /*store_tiers=*/3);
}

TEST(OutOfCoreGolden, TieredStoreForcedL0VqStaysBitIdentical) {
  golden_out_of_core(/*vq=*/true, /*store_tiers=*/3);
}

// The other side of the LOD trade: at an adaptive policy the walkthrough
// fetches measurably fewer payload bytes than forced L0 while every frame
// holds a PSNR floor against the resident render.
TEST(OutOfCoreGolden, AdaptiveLodSavesFetchBytesWithinPsnrBound) {
  const auto scene = test_scene(28, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_lod_golden.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);
  const auto cameras = orbit_trajectory(6, 128);
  core::SequenceOptions seq;
  const auto resident = core::render_sequence(scene, cameras, seq);

  auto run_ooc = [&](const LodPolicy& lod) {
    ResidencyCacheConfig ccfg;
    ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
    ResidencyCache cache(store, ccfg);
    PrefetchConfig pcfg;
    pcfg.synchronous = true;
    pcfg.lod = lod;
    StreamingLoader loader(cache, pcfg);
    const auto scene_ooc = store.make_scene();
    const auto frames =
        core::render_sequence(scene_ooc, cameras, seq, &loader);
    core::StreamCacheStats total;
    for (const auto& f : frames.frames) total.accumulate(f.trace.cache);
    return std::make_pair(std::move(frames), total);
  };

  LodPolicy forced;
  forced.force_tier0 = true;
  const auto [l0_frames, l0_stats] = run_ooc(forced);

  LodPolicy adaptive;  // thresholds sized to this 128 px test camera
  adaptive.footprint_full_px = 40.0f;
  adaptive.footprint_half_px = 20.0f;
  const auto [lod_frames, lod_stats] = run_ooc(adaptive);

  // The adaptive pass really used pruned tiers...
  EXPECT_GT(lod_stats.tier_misses[1] + lod_stats.tier_misses[2] +
                lod_stats.tier_prefetches[1] + lod_stats.tier_prefetches[2],
            0u);
  // ...moved fewer bytes for the same trajectory...
  EXPECT_LT(lod_stats.bytes_fetched, l0_stats.bytes_fetched);
  // ...and held the quality floor on every frame.
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    EXPECT_EQ(l0_frames.frames[f].image.pixels(),
              resident.frames[f].image.pixels());
    const double db = metrics::psnr(resident.frames[f].image,
                                    lod_frames.frames[f].image);
    EXPECT_GE(db, 30.0) << "frame " << f;
  }
}

TEST(OutOfCoreGolden, ModelFreeSceneWithoutSourceIsRejected) {
  const auto scene = test_scene(20, 400, /*vq=*/false);
  TempFile file("/tmp/sgs_test_nosource.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  const auto scene_ooc = store.make_scene();
  // Rendering store metadata without a cache-backed source must fail loudly
  // (there are no resident parameters to read), on both entry points.
  EXPECT_THROW(core::render_streaming(scene_ooc, test_camera()),
               std::invalid_argument);
  core::SequenceRenderer seq(scene_ooc, {});
  EXPECT_THROW(seq.render(test_camera()), std::invalid_argument);
}

// Out-of-core with prefetch switched off (a loader that ranks nothing):
// every first touch is a demand miss, and the result is still
// bit-identical.
TEST(OutOfCoreGolden, BareCacheWithoutLoaderAlsoMatches) {
  const auto scene = test_scene(19, 1500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_bare.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ResidencyCache cache(store, {});
  PrefetchConfig pcfg;
  pcfg.max_groups_per_frame = 0;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();

  const gs::Camera cam = test_camera();
  core::SequenceOptions seq;
  core::SequenceRenderer res_renderer(scene, seq);
  core::SequenceRenderer ooc_renderer(scene_ooc, seq, &loader);
  const auto a = res_renderer.render(cam);
  const auto b = ooc_renderer.render(cam);
  EXPECT_EQ(a.image.pixels(), b.image.pixels());
  EXPECT_GT(b.trace.cache.misses, 0u);
  EXPECT_EQ(b.trace.cache.prefetches, 0u);
}

// ------------------------------------------------------- failure domain --
//
// One bad byte in a store must cost pixels of one group — never the
// process, never a deadlock, never a refetch storm. The fault-injection
// helpers (poison_vq_group, densest_group, copy_file) are shared with
// test_serve.cpp via stream_fault_testutil.hpp.
using faulttest::copy_file;
using faulttest::densest_group;
using faulttest::poison_vq_group;

TEST(AssetStore, WriterDetectsFullDisk) {
  std::ofstream probe("/dev/full", std::ios::binary);
  if (!probe) GTEST_SKIP() << "no /dev/full on this platform";
  probe.close();
  const auto scene = test_scene(40, 400, /*vq=*/false);
  // Every write to /dev/full fails with ENOSPC: the writer must notice at
  // its stream-state check instead of reporting success on a truncated
  // store. The thrown error names the path.
  try {
    AssetStore::write("/dev/full", scene);
    FAIL() << "write to /dev/full reported success";
  } catch (const StreamException& e) {
    EXPECT_EQ(e.error().kind, StreamErrorKind::kIoWrite);
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos);
  }
}

// Corruption corpus, part 1: truncate a valid tiered store at every
// section boundary (and inside each section). Open must fail with a typed
// error — no crash, no garbage store object.
TEST(AssetStore, CorruptionCorpusTruncationAtEveryBoundary) {
  const auto scene = test_scene(41, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_corpus.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  const std::vector<char> bytes = read_all(file.path);

  // Reconstruct the section boundaries from the store's own metadata: the
  // payload section starts at group 0's tier-0 offset (the writer's first
  // payload), the index tables span (gaussians + tier-table entries) u32s
  // before it, and the directory (92 B per group at 3 tiers) before that.
  std::uint64_t dir_start, index_start, payload_start;
  {
    AssetStore store(file.path);
    payload_start = store.tier_extent(0, 0).offset;
    std::uint64_t tier_entries = 0;
    for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
      for (int t = 1; t < store.tier_count(); ++t) {
        tier_entries += store.tier_extent(v, t).count;
      }
    }
    index_start = payload_start -
                  (store.gaussian_count() + tier_entries) * sizeof(std::uint32_t);
    dir_start = index_start -
                static_cast<std::uint64_t>(store.group_count()) * 92u;
    ASSERT_LT(dir_start, index_start);
  }

  const std::vector<std::uint64_t> cuts = {
      0,                // empty file
      4,                // after the magic
      12,               // inside the rendering config
      dir_start - 1,    // header cut one byte short
      dir_start,        // header/directory boundary
      dir_start + 46,   // mid-directory-entry
      index_start,      // directory/index boundary
      (index_start + payload_start) / 2,  // mid-index-table
      payload_start,    // index/payload boundary: all payloads beyond EOF
      payload_start + 1,
      bytes.size() - 7,  // last payload cut short
  };
  TempFile cut_file("/tmp/sgs_test_corpus_cut.sgsc");
  for (const std::uint64_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    {
      std::ofstream out(cut_file.path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    StreamError error;
    EXPECT_EQ(AssetStore::open(cut_file.path, &error), nullptr)
        << "cut at " << cut << " opened";
    EXPECT_FALSE(error.detail.empty()) << "cut at " << cut;
    // The legacy constructor reports the same failure as an exception that
    // still is-a runtime_error.
    EXPECT_THROW(AssetStore store(cut_file.path), std::runtime_error)
        << "cut at " << cut;
  }
}

// Corruption corpus, part 2: flipped payload bytes are a *read-time*,
// group-scoped event — the store opens, the bad group reports a typed
// error, and every other group stays readable.
TEST(AssetStore, CorruptionCorpusPoisonedPayloadIsGroupScoped) {
  const auto scene = test_scene(42, 1500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_poison.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ASSERT_GE(store.group_count(), 2);
  const voxel::DenseVoxelId bad = densest_group(store);
  poison_vq_group(file.path, store, bad);

  const StreamResult<DecodedGroup> r = store.read_group_checked(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, StreamErrorKind::kCorruptPayload);
  EXPECT_EQ(r.error().group, static_cast<std::int64_t>(bad));
  EXPECT_EQ(r.error().tier, 0);
  EXPECT_FALSE(r.error().detail.empty());
  // The failure is a property of the payload, not of the first read: a
  // repeated read reports the same typed error.
  const StreamResult<DecodedGroup> again = store.read_group_checked(bad);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().kind, StreamErrorKind::kCorruptPayload);
  EXPECT_EQ(again.error().group, static_cast<std::int64_t>(bad));

  // Fault isolation at the store layer: other groups still read fine,
  // in any order relative to the failing reads.
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    if (v == bad || store.tier_extent(v, 0).count == 0) continue;
    const StreamResult<DecodedGroup> ok = store.read_group_checked(v);
    EXPECT_TRUE(ok.ok()) << "group " << v;
  }
}

// Concurrent reads of one LocalFileBackend overlap (pread, no lock around
// the read) and still deliver every byte and count every request exactly.
TEST(LocalFileBackend, ConcurrentReadsMatchTheFileImage) {
  TempFile file("/tmp/sgs_test_pread.bin");
  {
    std::mt19937_64 rng(5);
    std::vector<char> bytes(1 << 18);
    for (char& b : bytes) b = static_cast<char>(rng());
    std::ofstream out(file.path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto image = MemoryBackend::from_file(file.path);
  ASSERT_NE(image, nullptr);
  LocalFileBackend backend(file.path);
  ASSERT_FALSE(backend.open_error().has_value());
  const std::uint64_t size = backend.size();
  ASSERT_EQ(size, image->size());

  constexpr int kThreads = 8;
  constexpr int kReads = 300;
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(100 + static_cast<std::uint64_t>(t));
      std::vector<char> got, want;
      for (int i = 0; i < kReads; ++i) {
        const std::uint64_t offset = rng() % size;
        const std::uint64_t len = std::min<std::uint64_t>(
            1 + rng() % 8192, size - offset);
        got.assign(len, 0);
        want.assign(len, 1);
        const auto r = backend.read_range(offset, got);
        const auto w = image->read_range(offset, want);
        if (!r.ok() || !w.ok() || r.value().bytes != len || got != want) {
          ++mismatches;
        }
        bytes_read += len;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  FetchBackendStats s = backend.stats();
  EXPECT_EQ(s.requests, std::uint64_t{kThreads * kReads});
  EXPECT_EQ(s.bytes, bytes_read.load());
  EXPECT_EQ(s.partial_reads, 0u);

  // Past EOF: a short read, counted as a request with no bytes delivered.
  std::vector<char> tail(20);
  const auto past = backend.read_range(size - 10, tail);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.error().kind, StreamErrorKind::kIoRead);
  s = backend.stats();
  EXPECT_EQ(s.requests, std::uint64_t{kThreads * kReads} + 1);
  EXPECT_EQ(s.bytes, bytes_read.load());
  EXPECT_EQ(s.partial_reads, 1u);

  LocalFileBackend missing("/nonexistent/sgs_test_pread.bin");
  ASSERT_TRUE(missing.open_error().has_value());
  EXPECT_EQ(missing.open_error()->kind, StreamErrorKind::kIoOpen);
  const auto r = missing.read_range(0, tail);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, StreamErrorKind::kIoOpen);
}

// A 77-byte v1 header that ends right after its group count: every count
// it claims must be checked against the bytes that follow it (none) before
// open sizes anything from them.
std::vector<char> crafted_header(std::uint32_t n_groups, bool vq) {
  std::vector<char> b;
  auto put = [&b](const auto& v) {
    const char* p = reinterpret_cast<const char*>(&v);
    b.insert(b.end(), p, p + sizeof(v));
  };
  put(kSgscMagic);
  put(kSgscVersionV1);
  put(std::uint32_t{vq ? 1u : 0u});
  put(1.0f);             // voxel_size
  put(std::int32_t{16});  // group_size
  put(std::int32_t{1});   // ray_stride
  put(std::uint8_t{1});   // use_coarse_filter
  for (int i = 0; i < 3; ++i) put(0.0f);  // background
  for (int i = 0; i < 3; ++i) put(0.0f);  // grid origin
  put(1.0f);                               // grid voxel_size
  for (int i = 0; i < 3; ++i) put(std::int32_t{64});  // grid dims
  put(std::uint64_t{0});  // gaussian_count
  put(n_groups);
  return b;
}

long peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

TEST(AssetStore, OpenRejectsCountsTheFileDoesNotBack) {
  ASSERT_EQ(crafted_header(1, false).size(), 77u);
  const long rss0 = peak_rss_kb();
  for (const std::uint32_t n_groups : {1u << 24, 1u << 28}) {
    StreamError error;
    const auto store = AssetStore::open(
        std::make_shared<MemoryBackend>(crafted_header(n_groups, false)),
        &error);
    EXPECT_EQ(store, nullptr) << n_groups;
    EXPECT_EQ(error.kind, StreamErrorKind::kCorruptDirectory) << n_groups;
  }
  // A VQ header whose first codebook claims 1024 x 2^24 floats (64 GiB).
  std::vector<char> vq = crafted_header(1, true);
  for (const std::uint32_t v : {1024u, 1u << 24}) {
    const char* p = reinterpret_cast<const char*>(&v);
    vq.insert(vq.end(), p, p + sizeof(v));
  }
  StreamError error;
  EXPECT_EQ(AssetStore::open(std::make_shared<MemoryBackend>(vq), &error),
            nullptr);
  EXPECT_EQ(error.kind, StreamErrorKind::kCorruptHeader);
  EXPECT_LT(peak_rss_kb() - rss0, 64L * 1024);
}

// A valid raw store whose grid dims (header offset 53) are patched upward:
// every raw voxel id stays in range, so only the raw-voxel cap stands
// between the header and a 4 B-per-cell renaming table (1 GiB at
// 1024 x 1024 x 256).
TEST(AssetStore, OpenRejectsGridDimsPastTheRawVoxelCap) {
  const auto scene = test_scene(44, 300, /*vq=*/false);
  TempFile file("/tmp/sgs_test_griddims.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  const auto image = MemoryBackend::from_file(file.path);
  ASSERT_NE(image, nullptr);
  std::vector<char> bytes(image->size());
  ASSERT_TRUE(image->read_range(0, bytes).ok());
  ASSERT_NE(AssetStore::open(std::make_shared<MemoryBackend>(bytes)),
            nullptr);

  const long rss0 = peak_rss_kb();
  const std::int32_t huge = std::numeric_limits<std::int32_t>::max();
  for (const std::array<std::int32_t, 3> dims :
       {std::array<std::int32_t, 3>{1024, 1024, 256},
        std::array<std::int32_t, 3>{huge, huge, huge}}) {
    std::vector<char> patched = bytes;
    std::memcpy(patched.data() + 53, dims.data(), sizeof(dims));
    StreamError error;
    EXPECT_EQ(AssetStore::open(std::make_shared<MemoryBackend>(patched),
                               &error),
              nullptr)
        << dims[0];
    EXPECT_EQ(error.kind, StreamErrorKind::kCorruptHeader) << dims[0];
  }
  EXPECT_LT(peak_rss_kb() - rss0, 64L * 1024);
}

TEST(ResidencyCache, FailedFetchServesDegradedThenNegativeCaches) {
  const auto scene = test_scene(43, 1500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_failcache.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  ASSERT_GE(store.group_count(), 2);
  const voxel::DenseVoxelId bad = densest_group(store);
  const voxel::DenseVoxelId good = bad == 0 ? 1 : 0;
  poison_vq_group(file.path, store, bad);

  ResidencyCacheConfig cfg;
  cfg.max_fetch_attempts = 2;
  cfg.retry_backoff_base = 2;
  ResidencyCache cache(store, cfg);

  // Attempt 1: the fetch fails; the acquire is served an EMPTY view (the
  // frame renders without this group) instead of throwing or hanging.
  const AcquireOutcome o1 = cache.acquire_outcome(bad);
  EXPECT_TRUE(o1.degraded);
  EXPECT_TRUE(o1.fetch_errored);
  EXPECT_FALSE(o1.group_failed);  // one failure left in the budget
  EXPECT_EQ(o1.view.size(), 0u);
  EXPECT_EQ(o1.served_tier, -1);
  ASSERT_NE(o1.error, nullptr);
  EXPECT_EQ(o1.error->kind, StreamErrorKind::kCorruptPayload);
  cache.release(bad);  // release stays balanced on degraded acquires

  // Backoff (2 denied requests at base 2): no disk attempt, still served
  // degraded, no new fetch_errors.
  for (int i = 0; i < 2; ++i) {
    const AcquireOutcome o = cache.acquire_outcome(bad);
    EXPECT_TRUE(o.degraded);
    EXPECT_FALSE(o.fetch_errored);
    cache.release(bad);
  }
  EXPECT_EQ(cache.stats().fetch_errors, 1u);

  // Attempt 2: backoff drained, retry fails, budget exhausted — the group
  // is negative-cached for good.
  const AcquireOutcome o2 = cache.acquire_outcome(bad);
  EXPECT_TRUE(o2.fetch_errored);
  EXPECT_TRUE(o2.group_failed);
  cache.release(bad);
  EXPECT_TRUE(cache.group_failed(bad));
  ASSERT_TRUE(cache.group_error(bad).has_value());
  EXPECT_EQ(cache.group_error(bad)->kind, StreamErrorKind::kCorruptPayload);

  // Forever after: degraded serves, zero additional disk attempts.
  for (int i = 0; i < 10; ++i) {
    const AcquireOutcome o = cache.acquire_outcome(bad);
    EXPECT_TRUE(o.degraded);
    EXPECT_TRUE(o.group_failed);
    EXPECT_FALSE(o.fetch_errored);
    cache.release(bad);
  }
  // And the prefetch path is denied without IO too (the anti-storm check).
  EXPECT_EQ(cache.prefetch_checked(bad), PrefetchResult::kNegativeCached);

  const auto s = cache.stats();
  EXPECT_EQ(s.fetch_errors, 2u);   // exactly max_fetch_attempts disk touches
  EXPECT_EQ(s.failed_groups, 1u);  // one transition to the failed state
  EXPECT_EQ(s.degraded_groups, 14u);  // 1 + 2 backoff + 1 + 10 negative
  EXPECT_EQ(s.bytes_fetched, 0u);  // nothing ever landed

  // The cache stays fully usable for every other group.
  const AcquireOutcome ok = cache.acquire_outcome(good);
  EXPECT_FALSE(ok.degraded);
  EXPECT_TRUE(ok.missed);
  EXPECT_GT(ok.view.size(), 0u);
  cache.release(good);
  // A negative-cached (group, tier) surfaces in the failed-tier mask
  // prefetch ranking reads (tier 0 on this v1 store).
  EXPECT_TRUE(cache.tier_failed(bad, 0));
}

TEST(ResidencyCache, ConcurrentAcquiresOfFailedGroupNeverDeadlock) {
  const auto scene = test_scene(44, 1500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_faildead.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  const voxel::DenseVoxelId bad = densest_group(store);
  poison_vq_group(file.path, store, bad);

  ResidencyCache cache(store, {});
  // The seed bug: a throwing fetch left Entry::loading=true forever, so
  // every later acquire slept on cv_ for good. With the RAII guard, any
  // number of concurrent acquires of the poisoned group must all return.
  std::vector<std::thread> workers;
  std::atomic<int> returned{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&cache, bad, &returned] {
      for (int i = 0; i < 25; ++i) {
        const AcquireOutcome o = cache.acquire_outcome(bad);
        EXPECT_TRUE(o.degraded);
        cache.release(bad);
      }
      ++returned;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(returned.load(), 8);
  EXPECT_LE(cache.stats().fetch_errors,
            static_cast<std::uint64_t>(cache.config().max_fetch_attempts));
  EXPECT_TRUE(cache.group_failed(bad));
}

TEST(ResidencyCache, TransientErrorRecoversAfterRepair) {
  const auto scene = test_scene(45, 1500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_repair.sgsc");
  TempFile pristine("/tmp/sgs_test_repair_pristine.sgsc");
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  copy_file(file.path, pristine.path);
  AssetStore store(file.path);
  const voxel::DenseVoxelId bad = densest_group(store);
  poison_vq_group(file.path, store, bad);

  ResidencyCacheConfig cfg;
  cfg.retry_backoff_base = 1;  // one denied request between attempts
  ResidencyCache cache(store, cfg);

  const AcquireOutcome o1 = cache.acquire_outcome(bad);
  EXPECT_TRUE(o1.fetch_errored);
  cache.release(bad);

  // The operator repairs the file in place (the store's handle re-seeks
  // and re-reads per fetch, so repaired bytes are picked up).
  copy_file(pristine.path, file.path);
  const AcquireOutcome denied = cache.acquire_outcome(bad);  // drains backoff
  EXPECT_TRUE(denied.degraded);
  cache.release(bad);

  const AcquireOutcome o2 = cache.acquire_outcome(bad);
  EXPECT_FALSE(o2.degraded);
  EXPECT_TRUE(o2.missed);
  EXPECT_GT(o2.view.size(), 0u);
  cache.release(bad);
  // Success fully resets the failure state: no lingering backoff, and the
  // recovered payload matches a pristine read bit-for-bit.
  EXPECT_FALSE(cache.group_failed(bad));
  const AcquireOutcome o3 = cache.acquire_outcome(bad);
  EXPECT_FALSE(o3.missed);  // plain hit now
  cache.release(bad);
  const DecodedGroup direct = faulttest::read_ok(store, bad);
  EXPECT_EQ(direct.size(),
            static_cast<std::size_t>(store.tier_extent(bad, 0).count));
}

TEST(ResidencyCache, FailedUpgradeServesStaleLowerTier) {
  const auto scene = test_scene(46, 2500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_staletier.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);
  // A group whose L2 payload does NOT alias L0 (pruned), so poisoning L0
  // leaves L2 readable. Default VQ tiers: L1 aliases L0, L2 is pruned.
  voxel::DenseVoxelId v = static_cast<voxel::DenseVoxelId>(-1);
  for (voxel::DenseVoxelId i = 0; i < store.group_count(); ++i) {
    if (store.tier_extent(i, 2).count > 0 &&
        store.tier_extent(i, 2).offset != store.tier_extent(i, 0).offset) {
      v = i;
      break;
    }
  }
  ASSERT_NE(v, static_cast<voxel::DenseVoxelId>(-1));
  poison_vq_group(file.path, store, v, /*tier=*/0);

  ResidencyCache cache(store, {});
  // L2 streams in fine...
  const AcquireOutcome o2 = cache.acquire_outcome(v, 2);
  EXPECT_FALSE(o2.degraded);
  EXPECT_EQ(o2.served_tier, 2);
  cache.release(v);
  // ...and when the L0 upgrade fails, the acquire is served the STALE
  // resident L2 payload — degraded quality beats a dropped group.
  const AcquireOutcome o0 = cache.acquire_outcome(v, 0);
  EXPECT_TRUE(o0.degraded);
  EXPECT_TRUE(o0.fetch_errored);
  EXPECT_EQ(o0.served_tier, 2);
  EXPECT_EQ(o0.view.size(), store.tier_extent(v, 2).count);
  cache.release(v);
  EXPECT_EQ(cache.resident_tier(v), 2);  // old payload intact

  // Exhaust the retry budget (denials drain the doubling backoff between
  // the three attempts): tier 0 goes negative-cached while the group is
  // STILL resident at its stale tier — served degraded, and tier 0 failed
  // in the mask prefetch ranking reads, so it stops proposing the doomed
  // upgrade. The failure is TIER-scoped: tier 2 stays healthy.
  for (int i = 0; i < 20; ++i) {
    cache.acquire_outcome(v, 0);
    cache.release(v);
  }
  EXPECT_TRUE(cache.group_failed(v));
  EXPECT_TRUE(cache.tier_failed(v, 0));
  EXPECT_FALSE(cache.tier_failed(v, 1));
  EXPECT_FALSE(cache.tier_failed(v, 2));
  EXPECT_EQ(cache.resident_tier(v), 2);
  const AcquireOutcome after = cache.acquire_outcome(v, 0);
  EXPECT_TRUE(after.degraded);
  EXPECT_EQ(after.served_tier, 2);
  cache.release(v);
  // An L2 request is a plain hit on the resident payload, not degraded.
  const AcquireOutcome l2 = cache.acquire_outcome(v, 2);
  EXPECT_FALSE(l2.degraded);
  EXPECT_EQ(l2.served_tier, 2);
  cache.release(v);
}

// Errors are tier-scoped on disk, so the negative cache must be too: a
// group whose L0 payload is corrupt still FETCHES at its healthy pruned
// tiers — a far camera keeps its content instead of a hole.
TEST(ResidencyCache, TierScopedFailureLeavesOtherTiersFetchable) {
  const auto scene = test_scene(48, 2500, /*vq=*/true);
  TempFile file("/tmp/sgs_test_tierscope.sgsc");
  AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  ASSERT_TRUE(AssetStore::write(file.path, scene, wopts));
  AssetStore store(file.path);
  voxel::DenseVoxelId v = static_cast<voxel::DenseVoxelId>(-1);
  for (voxel::DenseVoxelId i = 0; i < store.group_count(); ++i) {
    if (store.tier_extent(i, 2).count > 0 &&
        store.tier_extent(i, 2).offset != store.tier_extent(i, 0).offset) {
      v = i;
      break;
    }
  }
  ASSERT_NE(v, static_cast<voxel::DenseVoxelId>(-1));
  poison_vq_group(file.path, store, v, /*tier=*/0);

  ResidencyCacheConfig cfg;
  cfg.max_fetch_attempts = 1;  // first L0 failure negative-caches tier 0
  ResidencyCache cache(store, cfg);
  const AcquireOutcome o0 = cache.acquire_outcome(v, 0);
  EXPECT_TRUE(o0.fetch_errored);
  EXPECT_EQ(o0.view.size(), 0u);  // nothing resident to fall back on
  cache.release(v);
  EXPECT_TRUE(cache.tier_failed(v, 0));

  // The same group's L2 request fetches normally — not degraded, not
  // denied — because only (v, L0) is poisoned.
  const AcquireOutcome o2 = cache.acquire_outcome(v, 2);
  EXPECT_FALSE(o2.degraded);
  EXPECT_TRUE(o2.missed);
  EXPECT_EQ(o2.served_tier, 2);
  EXPECT_EQ(o2.view.size(), store.tier_extent(v, 2).count);
  cache.release(v);
  EXPECT_FALSE(cache.tier_failed(v, 2));
  // One group entered the failed state (counted once, not per tier).
  EXPECT_EQ(cache.stats().failed_groups, 1u);
}

TEST(AsyncLane, CapturesTaskExceptionsInsteadOfTerminating) {
  async_wait_idle();
  (void)async_take_errors();  // drain anything a previous test left behind
  const std::uint64_t errors_before = async_task_errors();

  std::atomic<int> ran{0};
  async_submit([&ran] { ++ran; });
  async_submit([] { throw std::runtime_error("injected lane failure"); });
  // The lane must keep draining after a throwing task.
  async_submit([&ran] { ++ran; });
  async_wait_idle();

  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(async_task_errors(), errors_before + 1);
  const std::vector<std::string> errors = async_take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("injected lane failure"), std::string::npos);
  EXPECT_TRUE(async_take_errors().empty());  // drained
}

// The acceptance bar of the failure-domain work: a walkthrough over a
// store with one poisoned voxel group completes every frame, reports the
// failure in the trace counters, and renders every error-free frame
// bit-identical to the same walkthrough over the pristine store.
TEST(OutOfCoreGolden, PoisonedGroupWalkthroughCompletesAndIsolatesFault) {
  const auto scene = test_scene(47, 2500, /*vq=*/true);
  TempFile good_file("/tmp/sgs_test_fault_good.sgsc");
  TempFile bad_file("/tmp/sgs_test_fault_bad.sgsc");
  ASSERT_TRUE(AssetStore::write(good_file.path, scene));
  copy_file(good_file.path, bad_file.path);
  {
    AssetStore probe(bad_file.path);
    poison_vq_group(bad_file.path, probe, densest_group(probe));
  }

  // Four orbit frames that stream the (central, densest) poisoned group,
  // then two frames looking away from the scene entirely — guaranteed
  // error-free, so the bit-identical comparison below is never vacuous.
  auto cameras = orbit_trajectory(4, 128);
  for (int f = 0; f < 2; ++f) {
    cameras.push_back(gs::Camera::look_at({0, 1, -20}, {0, 1, -40}, {0, 1, 0},
                                          0.9f, 128, 128));
  }
  auto run = [&](const std::string& path) {
    AssetStore store(path);
    ResidencyCacheConfig ccfg;
    ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
    // One strike: the first failure negative-caches the group, making the
    // walkthrough's failure counters exact (1 attempt, 1 failed group).
    ccfg.max_fetch_attempts = 1;
    ResidencyCache cache(store, ccfg);
    PrefetchConfig pcfg;
    pcfg.synchronous = true;
    pcfg.lod.force_tier0 = true;
    StreamingLoader loader(cache, pcfg);
    const auto scene_ooc = store.make_scene();
    return core::render_sequence(scene_ooc, cameras, {}, &loader);
  };

  const auto pristine = run(good_file.path);
  const auto faulty = run(bad_file.path);

  // Every frame completed — no terminate, no deadlock, no early exit.
  ASSERT_EQ(faulty.frames.size(), cameras.size());
  core::StreamCacheStats total;
  std::size_t degraded_frames = 0;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    const core::StreamCacheStats& cs = faulty.frames[f].trace.cache;
    total.accumulate(cs);
    if (cs.degraded_groups > 0) {
      ++degraded_frames;
    } else {
      // Error-free frames are bit-identical to the pristine-store run.
      EXPECT_EQ(faulty.frames[f].image.pixels(),
                pristine.frames[f].image.pixels())
          << "frame " << f;
    }
  }
  // The fault actually fired and was reported in the v5 counters.
  EXPECT_GT(total.fetch_errors, 0u);
  EXPECT_GT(total.degraded_groups, 0u);
  EXPECT_GT(degraded_frames, 0u);
  EXPECT_LT(degraded_frames, cameras.size()) << "no error-free frame to pin";
  // Bounded disk touches for the one bad group, then negative-cached.
  EXPECT_EQ(total.fetch_errors, 1u);
  EXPECT_EQ(total.failed_groups, 1u);
}

// ------------------------------------- zero-stall: coarse floor + deadlines --
//
// The always-resident floor plus deadline-driven acquires turn demand
// stalls into bounded quality loss: acquire always has *something* to
// return. These tests pin the floor's pinning/eviction immunity, the
// priority queue's deterministic ordering, the once-per-(frame, group)
// fallback accounting, and the two bit-exactness escapes (generous
// deadline; v1 store without a coarse tier).

void write_floor_store(const std::string& path,
                       const core::StreamingScene& scene) {
  ASSERT_TRUE(
      AssetStore::write(path, scene, AssetStoreWriteOptions::with_coarse_floor()));
}

TEST(CoarseFloor, PinsEveryGroupAndSurvivesEvictionPressure) {
  const auto scene = test_scene(55, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_floor_pin.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);
  ASSERT_TRUE(store.has_coarse_tier());
  EXPECT_EQ(store.coarse_tier(), store.tier_count() - 1);

  // Main budget starved to ~1% of the scene; the floor rides its own
  // budget and must be untouchable by the LRU.
  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = std::max<std::uint64_t>(
      store.decoded_bytes_total() / 100, 1);
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());
  EXPECT_EQ(cache.coarse_tier(), store.coarse_tier());
  EXPECT_GT(cache.coarse_floor_bytes(), 0u);
  EXPECT_LE(cache.coarse_floor_bytes(), ccfg.coarse_floor_budget_bytes);
  // Floor bytes live outside the LRU budget entirely.
  EXPECT_EQ(cache.resident_bytes(), 0u);
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    EXPECT_EQ(cache.coarse_floor_resident(v), store.tier_extent(v, 0).count > 0)
        << "group " << v;
  }
  const std::uint64_t floor_before = cache.coarse_floor_bytes();

  // Blocking sweep over every group: constant eviction churn at 1% budget.
  std::uint64_t sweep = 0;
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    if (store.tier_extent(v, 0).count == 0) continue;
    const AcquireOutcome out = cache.acquire_outcome(v);
    EXPECT_FALSE(out.coarse_fallback);
    EXPECT_EQ(out.view.size(), store.tier_extent(v, 0).count);
    cache.release(v);
    ++sweep;
  }
  const core::StreamCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.hits + s.misses, s.accesses());
  // The churn never touched the floor: every group still pinned, byte for
  // byte, and the main budget still holds.
  EXPECT_EQ(cache.coarse_floor_bytes(), floor_before);
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    EXPECT_EQ(cache.coarse_floor_resident(v), store.tier_extent(v, 0).count > 0);
  }
  EXPECT_LE(cache.resident_bytes(), ccfg.budget_bytes);
  EXPECT_GT(sweep, 0u);
}

TEST(CoarseFloor, AllOrNothingAgainstItsBudget) {
  const auto scene = test_scene(56, 1500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_floor_allornothing.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);

  // A floor budget the predicted floor cannot fit: disabled outright, and
  // the deadline path degenerates to the blocking pre-floor behavior.
  ResidencyCacheConfig ccfg;
  ccfg.coarse_floor_budget_bytes = 1;
  ResidencyCache cache(store, ccfg);
  EXPECT_FALSE(cache.coarse_floor_enabled());
  EXPECT_EQ(cache.coarse_floor_bytes(), 0u);
  EXPECT_EQ(cache.coarse_tier(), -1);

  const voxel::DenseVoxelId v = densest_group(store);
  // Deadline long past, but no fallback payload exists: the acquire blocks
  // and fetches — a deadline bounds stalls, it never invents pixels.
  const AcquireOutcome out = cache.acquire_outcome(v, 0, /*deadline_ns=*/1);
  EXPECT_FALSE(out.coarse_fallback);
  EXPECT_TRUE(out.missed);
  EXPECT_EQ(out.view.size(), store.tier_extent(v, 0).count);
  cache.release(v);
}

TEST(CoarseFloor, ExpiredDeadlineAcquireNeverBlocksAndNeverFetches) {
  const auto scene = test_scene(57, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_floor_noblock.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);
  ResidencyCacheConfig ccfg;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());

  std::uint64_t served = 0;
  for (voxel::DenseVoxelId v = 0; v < store.group_count(); ++v) {
    if (store.tier_extent(v, 0).count == 0) continue;
    // Deadline of 1 ns on the stage clock: expired since boot. Every
    // acquire must come back from the floor, instantly, without disk IO.
    const AcquireOutcome out = cache.acquire_outcome(v, 0, /*deadline_ns=*/1);
    EXPECT_TRUE(out.coarse_fallback);
    EXPECT_EQ(out.served_tier, cache.coarse_tier());
    EXPECT_EQ(out.bytes_fetched, 0u);
    EXPECT_FALSE(out.missed);
    EXPECT_GT(out.view.size(), 0u);
    EXPECT_EQ(out.view.size(),
              store.tier_extent(v, cache.coarse_tier()).count);
    cache.release(v);
    ++served;
  }
  const core::StreamCacheStats s = cache.stats();
  // Floor serves are hits at the floor tier; no fetch ever ran.
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, served);
  EXPECT_EQ(s.bytes_fetched, 0u);
  EXPECT_EQ(s.tier_hits[static_cast<std::size_t>(cache.coarse_tier())],
            served);
  // The cache itself never self-counts fallbacks: the once-per-(frame,
  // group) dedup belongs to the frame-aware StreamingLoader via
  // record_coarse_fallback() (so per-session counters sum to the global).
  EXPECT_EQ(s.coarse_fallbacks, 0u);
}

TEST(PrefetchPriorityQueue, PopsByPriorityThenGroupIdDeterministically) {
  PrefetchPriorityQueue q;
  auto req = [](voxel::DenseVoxelId id, float priority) {
    PrefetchRequest r;
    r.id = id;
    r.tier = 0;
    r.priority = priority;
    return r;
  };
  // Equal priorities tie-break by ascending id regardless of push order.
  EXPECT_TRUE(q.push(req(5, 2.0f)));
  EXPECT_TRUE(q.push(req(9, 1.0f)));
  EXPECT_TRUE(q.push(req(3, 1.0f)));
  EXPECT_TRUE(q.push(req(1, 3.0f)));
  EXPECT_TRUE(q.push(req(8, kUrgentPriority)));  // sorts ahead of everything
  EXPECT_EQ(q.pending(), 5u);

  PrefetchRequest out;
  const std::uint64_t now = core::stage_clock_ns();
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 8u);
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 9u);
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 5u);
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 1u);
  EXPECT_FALSE(q.pop(&out, now));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(PrefetchPriorityQueue, MergesSameOrBetterAndSupersedesWorseTiers) {
  PrefetchPriorityQueue q;
  PrefetchRequest r;
  r.id = 7;
  r.tier = 1;
  r.priority = 1.0f;
  EXPECT_TRUE(q.push(r));
  // Same tier: merged away. Worse tier: also merged (the pending fetch
  // satisfies a worse request).
  EXPECT_FALSE(q.push(r));
  r.tier = 2;
  EXPECT_FALSE(q.push(r));
  EXPECT_EQ(q.merged(), 2u);
  // Strictly better tier supersedes: one live request at tier 0 remains,
  // the stale tier-1 heap node is skipped at pop.
  r.tier = 0;
  EXPECT_TRUE(q.push(r));
  EXPECT_EQ(q.pending(), 1u);
  PrefetchRequest out;
  const std::uint64_t now = core::stage_clock_ns();
  ASSERT_TRUE(q.pop(&out, now));
  EXPECT_EQ(out.id, 7u);
  EXPECT_EQ(out.tier, 0u);
  EXPECT_FALSE(q.pop(&out, now));
}

TEST(PrefetchPriorityQueue, DropsExpiredRequestsAtPop) {
  PrefetchPriorityQueue q;
  PrefetchRequest r;
  r.id = 4;
  r.priority = 1.0f;
  r.deadline_ns = 5;  // long past on the stage clock
  EXPECT_TRUE(q.push(r));
  PrefetchRequest out;
  EXPECT_FALSE(q.pop(&out, core::stage_clock_ns()));
  EXPECT_EQ(q.expired(), 1u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(StreamingLoader, DeadlineFallbackCountsOncePerFrameGroupAndRequeues) {
  const auto scene = test_scene(58, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_deadline_once.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);
  ResidencyCacheConfig ccfg;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());

  PrefetchConfig pcfg;
  pcfg.synchronous = true;
  pcfg.fetch_deadline_ns = 0;  // expires the instant the frame begins
  StreamingLoader loader(cache, pcfg);

  const voxel::DenseVoxelId v = densest_group(store);
  const std::vector<voxel::DenseVoxelId> plan{v};
  // No camera: no ranked prefetch — the only traffic is the demand path.
  FrameIntent intent;
  loader.begin_frame(intent, plan);
  // The pixel pipeline acquires the same group from many pixel groups;
  // the fallback must be counted once per (frame, group), not per acquire.
  for (int k = 0; k < 3; ++k) {
    const GroupView view = loader.acquire(v);
    EXPECT_GT(view.size(), 0u);
    loader.release(v);
  }
  EXPECT_EQ(cache.stats().coarse_fallbacks, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // The wanted tier was re-queued at urgent priority, NOT drained inline
  // (a synchronous drain on the render path would be the very stall the
  // deadline killed).
  EXPECT_EQ(loader.queue().pending(), 1u);
  loader.end_frame();

  // The next frame's begin drains the urgent request; the group is now
  // resident at the wanted tier and serves real hits, no fallback.
  loader.begin_frame(intent, plan);
  EXPECT_EQ(loader.queue().pending(), 0u);
  EXPECT_EQ(cache.resident_tier(v), 0);
  const GroupView view = loader.acquire(v);
  EXPECT_EQ(view.size(), store.tier_extent(v, 0).count);
  loader.release(v);
  loader.end_frame();
  EXPECT_EQ(cache.stats().coarse_fallbacks, 1u);
  EXPECT_EQ(cache.stats().prefetches, 1u);
}

TEST(OutOfCoreGolden, GenerousDeadlineStaysBitIdentical) {
  const auto scene = test_scene(59, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_deadline_generous.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);
  const auto cameras = orbit_trajectory(4, 128);
  const auto resident = core::render_sequence(scene, cameras, {});

  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());
  PrefetchConfig pcfg;
  pcfg.synchronous = true;
  pcfg.lod.force_tier0 = true;
  // A whole-frame budget no test-machine fetch can miss: the deadline
  // machinery is armed on every acquire, yet no fallback ever fires — and
  // the output must be bit-for-bit the blocking path's.
  pcfg.fetch_deadline_ns = 60ull * 1000 * 1000 * 1000;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();
  const auto ooc = core::render_sequence(scene_ooc, cameras, {}, &loader);

  core::StreamCacheStats total;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    EXPECT_EQ(ooc.frames[f].image.pixels(), resident.frames[f].image.pixels())
        << "frame " << f;
    total.accumulate(ooc.frames[f].trace.cache);
  }
  EXPECT_EQ(total.coarse_fallbacks, 0u);
  EXPECT_GT(total.accesses(), 0u);
}

TEST(OutOfCoreGolden, ZeroDeadlineWalkthroughNeverStalls) {
  const auto scene = test_scene(60, 2500, /*vq=*/false);
  TempFile file("/tmp/sgs_test_zero_stall.sgsc");
  write_floor_store(file.path, scene);
  AssetStore store(file.path);
  const auto cameras = orbit_trajectory(6, 128);
  const auto resident = core::render_sequence(scene, cameras, {});

  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());
  PrefetchConfig pcfg;
  pcfg.synchronous = true;
  pcfg.lod.force_tier0 = true;
  // Squeeze the per-frame prefetch budget so warm-up spans several frames:
  // the walkthrough MUST lean on the floor, not coast on a warmed cache.
  pcfg.max_bytes_per_frame = store.payload_bytes_total() / 16;
  pcfg.fetch_deadline_ns = 0;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();
  const auto ooc = core::render_sequence(scene_ooc, cameras, {}, &loader);

  core::StreamCacheStats total;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    const core::StreamCacheStats& cs = ooc.frames[f].trace.cache;
    // The zero-stall property, per frame: not a single demand miss.
    EXPECT_EQ(cs.misses, 0u) << "frame " << f;
    total.accumulate(cs);
    if (cs.coarse_fallbacks == 0) {
      // No fallback fired: the frame must be bit-identical to resident
      // rendering (the floor never bleeds into clean frames).
      EXPECT_EQ(ooc.frames[f].image.pixels(), resident.frames[f].image.pixels())
          << "frame " << f;
    } else {
      // Fallback frames still render the whole scene at bounded quality.
      // (The starved prefetch budget makes early frames mostly-floor; the
      // production-budget quality gate lives in bench_streaming.)
      const double db =
          metrics::psnr(resident.frames[f].image, ooc.frames[f].image);
      EXPECT_GE(db, 12.0) << "frame " << f;
    }
  }
  // The floor was actually exercised (the squeezed prefetch budget cannot
  // cover the first frames), and the global counter equals the sum of the
  // per-frame deltas — nothing double- or under-counted.
  EXPECT_GT(total.coarse_fallbacks, 0u);
  EXPECT_EQ(cache.stats().coarse_fallbacks, total.coarse_fallbacks);
  EXPECT_EQ(total.hits + total.misses, total.accesses());
}

TEST(OutOfCoreGolden, V1StoreWithoutCoarseTierKeepsBlockingSemantics) {
  const auto scene = test_scene(61, 2000, /*vq=*/false);
  TempFile file("/tmp/sgs_test_v1_negative.sgsc");
  // v1 single-tier store: no coarse tier to pin — open() reports the
  // missing capability and the floor config is a no-op.
  ASSERT_TRUE(AssetStore::write(file.path, scene));
  AssetStore store(file.path);
  EXPECT_FALSE(store.has_coarse_tier());
  const auto cameras = orbit_trajectory(4, 128);
  const auto resident = core::render_sequence(scene, cameras, {});

  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ResidencyCache cache(store, ccfg);
  EXPECT_FALSE(cache.coarse_floor_enabled());
  PrefetchConfig pcfg;
  pcfg.synchronous = true;
  // A zero deadline with nothing to fall back on must not change a pixel
  // or a counter: the renderer keeps the blocking path, stalls and all.
  pcfg.fetch_deadline_ns = 0;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();
  const auto ooc = core::render_sequence(scene_ooc, cameras, {}, &loader);

  core::StreamCacheStats total;
  for (std::size_t f = 0; f < cameras.size(); ++f) {
    EXPECT_EQ(ooc.frames[f].image.pixels(), resident.frames[f].image.pixels())
        << "frame " << f;
    total.accumulate(ooc.frames[f].trace.cache);
  }
  // Pre-PR stall accounting: demand misses happened and were counted.
  EXPECT_GT(total.misses + total.prefetches, 0u);
  EXPECT_EQ(total.coarse_fallbacks, 0u);
}

TEST(OutOfCoreGolden, PoisonedGroupWithFloorStaysZeroStallAndBalancesPins) {
  const auto scene = test_scene(62, 2500, /*vq=*/true);
  TempFile good_file("/tmp/sgs_test_floor_fault_good.sgsc");
  TempFile bad_file("/tmp/sgs_test_floor_fault_bad.sgsc");
  write_floor_store(good_file.path, scene);
  copy_file(good_file.path, bad_file.path);
  voxel::DenseVoxelId poisoned = 0;
  {
    AssetStore probe(bad_file.path);
    poisoned = densest_group(probe);
    // Poison L0 only: the floor tier stays healthy, so the group's floor
    // payload pins fine and every deadline serve of it still has pixels.
    poison_vq_group(bad_file.path, probe, poisoned, /*tier=*/0);
  }

  AssetStore store(bad_file.path);
  ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 35 / 100;
  ccfg.coarse_floor_budget_bytes = store.decoded_bytes_total();
  ccfg.max_fetch_attempts = 1;  // one strike: exact failure counters
  ResidencyCache cache(store, ccfg);
  ASSERT_TRUE(cache.coarse_floor_enabled());
  ASSERT_TRUE(cache.coarse_floor_resident(poisoned));

  PrefetchConfig pcfg;
  pcfg.synchronous = true;
  pcfg.lod.force_tier0 = true;
  pcfg.fetch_deadline_ns = 0;
  StreamingLoader loader(cache, pcfg);
  const auto scene_ooc = store.make_scene();
  const auto cameras = orbit_trajectory(4, 128);
  const auto ooc = core::render_sequence(scene_ooc, cameras, {}, &loader);

  // Every frame completed without a single blocking demand fetch: at a
  // zero deadline the demand path never touches the disk, so the only
  // misses are the poisoned group's degraded (negative-cached) serves —
  // error accounting outranks the deadline so faults stay visible — and
  // the corruption itself surfaces on the prefetch lane.
  ASSERT_EQ(ooc.frames.size(), cameras.size());
  core::StreamCacheStats total;
  for (const auto& f : ooc.frames) {
    EXPECT_EQ(f.trace.cache.misses, f.trace.cache.degraded_groups);
    total.accumulate(f.trace.cache);
  }
  EXPECT_GT(total.coarse_fallbacks, 0u);
  EXPECT_GT(total.fetch_errors, 0u);
  EXPECT_TRUE(cache.tier_failed(poisoned, 0));
  // Pin balance across the poisoned run: an empty unpin drains the budget
  // overshoot, which only works if no acquire leaked a pin (pinned groups
  // are unevictable — a leak would wedge residency above budget forever).
  cache.unpin_plan({});
  EXPECT_LE(cache.resident_bytes(), ccfg.budget_bytes);
}

}  // namespace
}  // namespace sgs::stream
