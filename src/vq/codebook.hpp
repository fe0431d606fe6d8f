// A trained vector-quantization codebook for one Gaussian parameter group.
//
// Per the paper (Sec. III-C), different parameter groups get separate
// codebooks to preserve precision; the codebooks live in on-chip SRAM while
// only the per-Gaussian indices are stored in DRAM.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "vq/kmeans.hpp"

namespace sgs::vq {

class Codebook {
 public:
  Codebook() = default;
  Codebook(std::size_t dim, std::vector<float> entries)
      : dim_(dim), entries_(std::move(entries)) {}

  std::size_t dim() const { return dim_; }
  std::uint32_t size() const {
    return dim_ == 0 ? 0 : static_cast<std::uint32_t>(entries_.size() / dim_);
  }

  std::span<const float> entry(std::uint32_t idx) const {
    return {entries_.data() + static_cast<std::size_t>(idx) * dim_, dim_};
  }
  std::span<const float> raw() const { return entries_; }

  std::uint32_t nearest(std::span<const float> v) const {
    return nearest_centroid(entries_, dim_, v);
  }

  // On-chip SRAM footprint (float32 entries).
  std::size_t bytes() const { return entries_.size() * sizeof(float); }

  // Bits needed for an index into this codebook.
  int index_bits() const;

  // Binary serialization (little-endian: u32 dim, u32 entry count, raw
  // float32 entries). The loaded codebook is bit-identical to the saved one,
  // so decode() results round-trip exactly — the property the .sgsc scene
  // format relies on. save returns false on IO failure; load throws
  // std::runtime_error on truncation or implausible sizes, and before
  // allocating when the entries would need more than `max_bytes` of input.
  bool save(std::ostream& out) const;
  static Codebook load(std::istream& in,
                       std::uint64_t max_bytes = UINT64_MAX);

 private:
  std::size_t dim_ = 0;
  std::vector<float> entries_;
};

// Trains a codebook on `data` and returns it along with the assignments.
struct TrainedCodebook {
  Codebook codebook;
  std::vector<std::uint32_t> assignment;
  double inertia = 0.0;
};
TrainedCodebook train_codebook(std::span<const float> data, std::size_t dim,
                               const KMeansConfig& config);

}  // namespace sgs::vq
