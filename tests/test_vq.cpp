// Tests for vector quantization: k-means properties, codebooks, and the
// quantized Gaussian model.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gs/sh.hpp"
#include "scene/generator.hpp"
#include "vq/codebook.hpp"
#include "vq/kmeans.hpp"
#include "vq/quantized_model.hpp"

namespace sgs::vq {
namespace {

std::vector<float> clustered_data(std::size_t n, std::size_t dim, int clusters,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(static_cast<std::size_t>(clusters),
                                          std::vector<float>(dim));
  for (auto& c : centers)
    for (auto& v : c) v = rng.uniform(-10.0f, 10.0f);
  std::vector<float> data;
  data.reserve(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.uniform_index(static_cast<std::uint64_t>(clusters))];
    for (std::size_t d = 0; d < dim; ++d) data.push_back(c[d] + rng.normal(0.0f, 0.3f));
  }
  return data;
}

double quantization_error(std::span<const float> data, std::size_t dim,
                          const KMeansResult& r) {
  double err = 0.0;
  const std::size_t n = data.size() / dim;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double t = data[i * dim + d] -
                       r.centroids[static_cast<std::size_t>(r.assignment[i]) * dim + d];
      err += t * t;
    }
  }
  return err;
}

// ----------------------------------------------------------------- kmeans --

TEST(KMeans, AssignmentIsNearestCentroid) {
  const auto data = clustered_data(500, 3, 8, 1);
  KMeansConfig cfg;
  cfg.k = 8;
  cfg.seed = 2;
  const KMeansResult r = kmeans(data, 3, cfg);
  for (std::size_t i = 0; i < 500; ++i) {
    const std::uint32_t nearest =
        nearest_centroid(r.centroids, 3, {data.data() + i * 3, 3});
    EXPECT_EQ(r.assignment[i], nearest) << i;
  }
}

TEST(KMeans, InertiaMatchesAssignment) {
  const auto data = clustered_data(300, 4, 5, 3);
  KMeansConfig cfg;
  cfg.k = 5;
  const KMeansResult r = kmeans(data, 4, cfg);
  EXPECT_NEAR(r.inertia, quantization_error(data, 4, r), 1e-3 * (1.0 + r.inertia));
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  // Four tight clusters on far-apart lattice corners: inertia per point
  // must be on the order of the noise variance, not the separation.
  const float centers[4][3] = {
      {-8, -8, -8}, {8, 8, 8}, {-8, 8, 8}, {8, -8, -8}};
  Rng rng(5);
  std::vector<float> data;
  for (int i = 0; i < 2000; ++i) {
    const auto& c = centers[rng.uniform_index(4)];
    for (int d = 0; d < 3; ++d) data.push_back(c[d] + rng.normal(0.0f, 0.3f));
  }
  KMeansConfig cfg;
  cfg.k = 4;
  cfg.max_iters = 20;
  const KMeansResult r = kmeans(data, 3, cfg);
  EXPECT_LT(r.inertia / 2000.0, 3 * 0.3 * 0.3 * 4.0);
}

TEST(KMeans, DeterministicForSeed) {
  const auto data = clustered_data(400, 3, 6, 7);
  KMeansConfig cfg;
  cfg.k = 6;
  cfg.seed = 99;
  const KMeansResult a = kmeans(data, 3, cfg);
  const KMeansResult b = kmeans(data, 3, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids, b.centroids);
}

// Assignment runs in parallel, but the inertia is summed in point order:
// one thread or four give the same bits, so the tol early stop cannot flip.
TEST(KMeans, InertiaIndependentOfThreadCount) {
  const auto data = clustered_data(5000, 3, 12, 21);
  KMeansConfig cfg;
  cfg.k = 48;
  cfg.max_iters = 30;
  const int saved = parallelism();
  set_parallelism(1);
  const TrainedCodebook one = train_codebook(data, 3, cfg);
  set_parallelism(4);
  const TrainedCodebook four = train_codebook(data, 3, cfg);
  set_parallelism(saved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(one.inertia),
            std::bit_cast<std::uint64_t>(four.inertia));
  EXPECT_EQ(one.assignment, four.assignment);
  const auto a = one.codebook.raw(), b = four.codebook.raw();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(KMeans, KLargerThanNClamped) {
  std::vector<float> data = {0.0f, 1.0f, 2.0f};  // 3 points, dim 1
  KMeansConfig cfg;
  cfg.k = 10;
  const KMeansResult r = kmeans(data, 1, cfg);
  EXPECT_LE(r.centroids.size(), 3u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeans, SinglePoint) {
  std::vector<float> data = {3.0f, -1.0f};
  KMeansConfig cfg;
  cfg.k = 1;
  const KMeansResult r = kmeans(data, 2, cfg);
  EXPECT_FLOAT_EQ(r.centroids[0], 3.0f);
  EXPECT_FLOAT_EQ(r.centroids[1], -1.0f);
}

// Quantization error must shrink (weakly) as the codebook grows.
class CodebookSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodebookSizeSweep, ErrorMonotoneInK) {
  const auto data = clustered_data(1500, 4, 32, GetParam());
  double prev = 1e300;
  for (std::uint32_t k : {2u, 8u, 32u, 128u}) {
    KMeansConfig cfg;
    cfg.k = k;
    cfg.max_iters = 15;
    cfg.seed = GetParam() * 7 + k;
    const KMeansResult r = kmeans(data, 4, cfg);
    // Allow a small tolerance: k-means is a local optimizer.
    EXPECT_LT(r.inertia, prev * 1.05) << "k=" << k;
    prev = r.inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodebookSizeSweep, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------- codebook --

TEST(Codebook, IndexBits) {
  EXPECT_EQ(Codebook(1, std::vector<float>(4096)).index_bits(), 12);  // 4096 entries
  EXPECT_EQ(Codebook(1, std::vector<float>(512)).index_bits(), 9);
  EXPECT_EQ(Codebook(1, std::vector<float>(2)).index_bits(), 1);
  EXPECT_EQ(Codebook(1, std::vector<float>(3)).index_bits(), 2);
}

TEST(Codebook, BytesAndEntryAccess) {
  std::vector<float> entries = {1, 2, 3, 4, 5, 6};
  const Codebook cb(3, entries);
  EXPECT_EQ(cb.size(), 2u);
  EXPECT_EQ(cb.bytes(), 24u);
  EXPECT_FLOAT_EQ(cb.entry(1)[0], 4.0f);
  EXPECT_EQ(cb.nearest(std::vector<float>{1.1f, 2.1f, 2.9f}), 0u);
  EXPECT_EQ(cb.nearest(std::vector<float>{4.2f, 4.9f, 6.3f}), 1u);
}

TEST(Codebook, TrainProducesConsistentAssignments) {
  const auto data = clustered_data(800, 3, 10, 11);
  KMeansConfig cfg;
  cfg.k = 10;
  const TrainedCodebook tc = train_codebook(data, 3, cfg);
  EXPECT_EQ(tc.assignment.size(), 800u);
  for (std::size_t i = 0; i < 800; ++i) {
    EXPECT_EQ(tc.assignment[i], tc.codebook.nearest({data.data() + i * 3, 3}));
  }
}

// --------------------------------------------------------- quantized model --

gs::GaussianModel test_model(std::size_t n = 3000) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = 77;
  return scene::generate_scene(cfg);
}

VqConfig small_vq() {
  VqConfig v;
  v.scale_entries = 256;
  v.rotation_entries = 256;
  v.dc_entries = 256;
  v.sh_entries = 64;
  v.kmeans_iters = 6;
  v.max_train_samples = 4096;
  return v;
}

TEST(QuantizedModel, PositionsAndOpacityExact) {
  const auto model = test_model();
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  ASSERT_EQ(qm.size(), model.size());
  for (std::uint32_t i = 0; i < model.size(); i += 97) {
    const gs::Gaussian d = qm.decode(i);
    EXPECT_EQ(d.position, model.gaussians[i].position);
    EXPECT_FLOAT_EQ(d.opacity, model.gaussians[i].opacity);
  }
}

TEST(QuantizedModel, DecodedScaleNearOriginal) {
  const auto model = test_model();
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  double rel_err = 0.0;
  for (std::uint32_t i = 0; i < model.size(); ++i) {
    const gs::Gaussian d = qm.decode(i);
    rel_err += std::abs(d.max_scale() - model.gaussians[i].max_scale()) /
               (model.gaussians[i].max_scale() + 1e-9f);
  }
  EXPECT_LT(rel_err / static_cast<double>(model.size()), 0.25);
}

TEST(QuantizedModel, PaperConfigCodebookFootprint) {
  // 4096 x (3+4+3) floats + 512 x 45 floats = 256 KB within the paper's
  // 250 KB codebook buffer (the paper rounds; we assert the ballpark).
  const double kb = (4096.0 * (3 + 4 + 3) * 4 + 512.0 * 45 * 4) / 1024.0;
  EXPECT_NEAR(kb, 250.0, 10.0);
}

TEST(QuantizedModel, IndexBitsPerGaussian) {
  // Paper codebook sizes need at least 4096 training vectors per group.
  const auto model = test_model(8000);
  VqConfig v;  // paper config: 4096/4096/4096/512 entries
  v.kmeans_iters = 1;
  v.refine_iters = 0;
  v.max_train_samples = 8192;
  const QuantizedModel qm = QuantizedModel::build(model, v);
  // 12 + 12 + 12 + 9 = 45 bits of indices per Gaussian (paper Sec. III-C).
  EXPECT_EQ(qm.index_bits_per_gaussian(), 45);
}

TEST(QuantizedModel, LargerCodebooksReduceError) {
  const auto model = test_model(4000);
  auto decode_err = [&](const VqConfig& v) {
    const QuantizedModel qm = QuantizedModel::build(model, v);
    double err = 0.0;
    for (std::uint32_t i = 0; i < qm.size(); ++i) {
      const gs::Gaussian d = qm.decode(i);
      const gs::Gaussian& o = model.gaussians[i];
      err += (d.sh[0] - o.sh[0]).norm2();
      err += (d.scale - o.scale).norm2();
    }
    return err;
  };
  VqConfig small = small_vq();
  small.dc_entries = 32;
  small.scale_entries = 32;
  VqConfig big = small_vq();
  big.dc_entries = 1024;
  big.scale_entries = 1024;
  EXPECT_LT(decode_err(big), decode_err(small));
}

TEST(QuantizedModel, DecodeAllMatchesDecode) {
  const auto model = test_model(500);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  const gs::GaussianModel all = qm.decode_all();
  ASSERT_EQ(all.size(), qm.size());
  for (std::uint32_t i = 0; i < qm.size(); i += 53) {
    const gs::Gaussian a = qm.decode(i);
    EXPECT_EQ(all.gaussians[i].position, a.position);
    EXPECT_EQ(all.gaussians[i].scale, a.scale);
    EXPECT_EQ(all.gaussians[i].sh[0], a.sh[0]);
  }
}

TEST(QuantizedModel, RefinementDoesNotIncreaseDcError) {
  const auto model = test_model(3000);
  auto dc_err = [&](int refine) {
    VqConfig v = small_vq();
    v.refine_iters = refine;
    const QuantizedModel qm = QuantizedModel::build(model, v);
    double err = 0.0;
    for (std::uint32_t i = 0; i < qm.size(); ++i) {
      err += (qm.decode(i).sh[0] - model.gaussians[i].sh[0]).norm2();
    }
    return err;
  };
  // Quantization-aware refinement is a descent step on the same objective.
  EXPECT_LE(dc_err(3), dc_err(0) * 1.02);
}

// ------------------------------------------------------ binary round trips --

TEST(Codebook, BinaryRoundTripIsBitExact) {
  const auto data = clustered_data(2000, 4, 16, 9);
  KMeansConfig kc;
  kc.k = 16;
  kc.seed = 5;
  const TrainedCodebook tc = train_codebook(data, 4, kc);

  std::stringstream buf;
  ASSERT_TRUE(tc.codebook.save(buf));
  const Codebook back = Codebook::load(buf);
  ASSERT_EQ(back.dim(), tc.codebook.dim());
  ASSERT_EQ(back.size(), tc.codebook.size());
  for (std::uint32_t c = 0; c < back.size(); ++c) {
    const auto a = tc.codebook.entry(c);
    const auto b = back.entry(c);
    for (std::size_t d = 0; d < back.dim(); ++d) EXPECT_EQ(a[d], b[d]);
  }
}

TEST(Codebook, LoadRejectsTruncationAndGarbageDims) {
  std::stringstream empty;
  EXPECT_THROW(Codebook::load(empty), std::runtime_error);

  std::stringstream bad;
  const std::uint32_t dim = 0, count = 4;
  bad.write(reinterpret_cast<const char*>(&dim), 4);
  bad.write(reinterpret_cast<const char*>(&count), 4);
  EXPECT_THROW(Codebook::load(bad), std::runtime_error);
}

TEST(QuantizedModel, BinaryRoundTripDecodesBitExact) {
  const auto model = test_model(800);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());

  std::stringstream buf;
  ASSERT_TRUE(qm.save(buf));
  const QuantizedModel back = QuantizedModel::load(buf);
  ASSERT_EQ(back.size(), qm.size());
  EXPECT_EQ(back.codebook_bytes(), qm.codebook_bytes());
  EXPECT_EQ(back.index_bits_per_gaussian(), qm.index_bits_per_gaussian());
  for (std::uint32_t i = 0; i < qm.size(); ++i) {
    const gs::Gaussian a = qm.decode(i);
    const gs::Gaussian b = back.decode(i);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.rotation, b.rotation);
    EXPECT_EQ(a.opacity, b.opacity);
    EXPECT_EQ(a.sh, b.sh);
  }
}

TEST(QuantizedModel, FileRoundTripAndBadInputs) {
  const auto model = test_model(300);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  const std::string path = "/tmp/sgs_test_codec.sgvq";
  ASSERT_TRUE(qm.save_file(path));
  const QuantizedModel back = QuantizedModel::load_file(path);
  EXPECT_EQ(back.size(), qm.size());
  std::remove(path.c_str());

  EXPECT_THROW(QuantizedModel::load_file("/nonexistent/codec.sgvq"),
               std::runtime_error);
  std::stringstream junk;
  junk.write("JUNKJUNKJUNK", 12);
  EXPECT_THROW(QuantizedModel::load(junk), std::runtime_error);
}

long peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

template <typename T>
void put(std::string& b, T v) {
  b.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Magic + version of the SGVQ format, then whatever the probe claims.
std::string vq_header() {
  std::string b;
  put(b, std::uint32_t{0x51564753});  // "SGVQ"
  put(b, std::uint32_t{1});
  return b;
}

TEST(QuantizedModel, LoadRejectsCountsTheInputDoesNotBack) {
  const long rss0 = peak_rss_kb();
  // 16 bytes: the first codebook claims 45 x 2^22 floats (720 MiB).
  std::string book = vq_header();
  put(book, std::uint32_t{45});
  put(book, std::uint32_t{1} << 22);
  ASSERT_EQ(book.size(), 16u);
  std::stringstream book_in(book);
  EXPECT_THROW(QuantizedModel::load(book_in), std::runtime_error);

  // 268 bytes: four valid one-entry codebooks, then a Gaussian count with
  // no records behind it (2^24 needs 384 MiB of records, 2^32 ~96 GiB).
  for (const std::uint64_t n : {std::uint64_t{1} << 24,
                                std::uint64_t{1} << 32}) {
    std::string b = vq_header();
    for (const std::uint32_t dim : {3u, 4u, 3u, 45u}) {
      put(b, dim);
      put(b, std::uint32_t{1});
      for (std::uint32_t d = 0; d < dim; ++d) put(b, 0.0f);
    }
    put(b, n);
    ASSERT_EQ(b.size(), 268u);
    std::stringstream in(b);
    EXPECT_THROW(QuantizedModel::load(in), std::runtime_error) << n;
  }
  EXPECT_LT(peak_rss_kb() - rss0, 64L * 1024);
}

}  // namespace
}  // namespace sgs::vq
