#include "vq/codebook.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace sgs::vq {

int Codebook::index_bits() const {
  const std::uint32_t n = size();
  if (n <= 1) return 1;
  int bits = 0;
  std::uint32_t v = n - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

bool Codebook::save(std::ostream& out) const {
  const auto dim = static_cast<std::uint32_t>(dim_);
  const std::uint32_t count = size();
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(entries_.data()),
            static_cast<std::streamsize>(entries_.size() * sizeof(float)));
  return static_cast<bool>(out);
}

Codebook Codebook::load(std::istream& in, std::uint64_t max_bytes) {
  std::uint32_t dim = 0, count = 0;
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error("truncated codebook header");
  // Largest legitimate book in this codebase is 45-dim x 8192 entries; a
  // generous cap still rejects garbage lengths before allocating.
  if (dim == 0 || dim > 1024 || count > (1u << 24)) {
    throw std::runtime_error("implausible codebook dimensions");
  }
  if (std::uint64_t{dim} * count * sizeof(float) > max_bytes) {
    throw std::runtime_error("codebook entries exceed the input");
  }
  std::vector<float> entries(static_cast<std::size_t>(dim) * count);
  in.read(reinterpret_cast<char*>(entries.data()),
          static_cast<std::streamsize>(entries.size() * sizeof(float)));
  if (!in) throw std::runtime_error("truncated codebook entries");
  return Codebook(dim, std::move(entries));
}

TrainedCodebook train_codebook(std::span<const float> data, std::size_t dim,
                               const KMeansConfig& config) {
  KMeansResult r = kmeans(data, dim, config);
  TrainedCodebook out;
  out.codebook = Codebook(dim, std::move(r.centroids));
  out.assignment = std::move(r.assignment);
  out.inertia = r.inertia;
  return out;
}

}  // namespace sgs::vq
