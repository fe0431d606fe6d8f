#include "vq/kmeans.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace sgs::vq {

namespace {

double sq_dist(const float* a, const float* b, std::size_t dim) {
  double d = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double t = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    d += t * t;
  }
  return d;
}

// k-means++ seeding over the (possibly subsampled) training set.
std::vector<float> seed_centroids(const float* data, std::size_t n,
                                  std::size_t dim, std::uint32_t k, Rng& rng) {
  std::vector<float> centroids(static_cast<std::size_t>(k) * dim);
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());

  std::size_t first = rng.uniform_index(n);
  std::copy_n(data + first * dim, dim, centroids.begin());
  for (std::uint32_t c = 1; c < k; ++c) {
    const float* prev = centroids.data() + static_cast<std::size_t>(c - 1) * dim;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(min_d2[i], sq_dist(data + i * dim, prev, dim));
      total += min_d2[i];
    }
    // Sample proportional to squared distance; degenerate data falls back
    // to uniform.
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.uniform_index(n);
    }
    std::copy_n(data + pick * dim, dim,
                centroids.begin() + static_cast<std::size_t>(c) * dim);
  }
  return centroids;
}

// Assigns each of the n points to its nearest centroid (parallel over
// points) and returns the inertia. The per-point distances are summed
// serially in point order, so the inertia — and the tol early stop that
// reads it — is the same at every thread count.
double assign_points(const float* points, std::size_t n, std::size_t dim,
                     const std::vector<float>& centroids,
                     std::uint32_t* assignment) {
  std::vector<double> d2(n);
  const auto parts = static_cast<std::size_t>(parallelism());
  const std::size_t chunk = (n + parts - 1) / parts;
  parallel_for(0, parts, [&](std::size_t t) {
    const std::size_t e = std::min(n, (t + 1) * chunk);
    for (std::size_t i = t * chunk; i < e; ++i) {
      const std::uint32_t c =
          nearest_centroid(centroids, dim, {points + i * dim, dim});
      assignment[i] = c;
      d2[i] = sq_dist(points + i * dim,
                      centroids.data() + static_cast<std::size_t>(c) * dim,
                      dim);
    }
  });
  double inertia = 0.0;
  for (const double v : d2) inertia += v;
  return inertia;
}

}  // namespace

std::uint32_t nearest_centroid(std::span<const float> centroids, std::size_t dim,
                               std::span<const float> v) {
  assert(dim > 0 && centroids.size() % dim == 0 && v.size() == dim);
  const std::size_t k = centroids.size() / dim;
  std::uint32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double d = sq_dist(centroids.data() + c * dim, v.data(), dim);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

KMeansResult kmeans(std::span<const float> data, std::size_t dim,
                    const KMeansConfig& config) {
  assert(dim > 0 && data.size() % dim == 0 && !data.empty());
  const std::size_t n = data.size() / dim;
  const std::uint32_t k = std::min<std::uint32_t>(
      config.k, static_cast<std::uint32_t>(std::min<std::size_t>(
                    n, std::numeric_limits<std::uint32_t>::max())));

  Rng rng(config.seed);

  // Training subsample (evenly strided so all regions are represented).
  std::vector<float> train_storage;
  const float* train = data.data();
  std::size_t train_n = n;
  if (config.max_train_samples > 0 && n > config.max_train_samples) {
    train_n = config.max_train_samples;
    train_storage.resize(train_n * dim);
    const double stride = static_cast<double>(n) / static_cast<double>(train_n);
    for (std::size_t i = 0; i < train_n; ++i) {
      const std::size_t src = static_cast<std::size_t>(static_cast<double>(i) * stride);
      std::copy_n(data.data() + src * dim, dim, train_storage.begin() + i * dim);
    }
    train = train_storage.data();
  }

  KMeansResult result;
  result.dim = dim;
  result.centroids = seed_centroids(train, train_n, dim, k, rng);

  std::vector<std::uint32_t> train_assign(train_n, 0);
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config.max_iters; ++iter) {
    // Assignment step (parallel over points).
    const double inertia = assign_points(train, train_n, dim, result.centroids,
                                         train_assign.data());

    // Update step (serial, deterministic).
    std::vector<double> sums(static_cast<std::size_t>(k) * dim, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < train_n; ++i) {
      const std::uint32_t c = train_assign[i];
      ++counts[c];
      double* s = sums.data() + static_cast<std::size_t>(c) * dim;
      const float* p = train + i * dim;
      for (std::size_t d = 0; d < dim; ++d) s[d] += p[d];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep dead centroids where they are
      float* ctr = result.centroids.data() + static_cast<std::size_t>(c) * dim;
      const double* s = sums.data() + static_cast<std::size_t>(c) * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        ctr[d] = static_cast<float>(s[d] / static_cast<double>(counts[c]));
      }
    }

    result.iters_run = iter + 1;
    if (prev_inertia < std::numeric_limits<double>::infinity() &&
        prev_inertia - inertia <= config.tol * std::max(1.0, prev_inertia)) {
      break;
    }
    prev_inertia = inertia;
  }

  // Final full assignment over all points (parallel, deterministic).
  result.assignment.resize(n);
  result.inertia = assign_points(data.data(), n, dim, result.centroids,
                                 result.assignment.data());
  return result;
}

}  // namespace sgs::vq
