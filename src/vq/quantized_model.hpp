// Vector-quantized Gaussian model: the compressed form streamed from DRAM
// by the fine-grained filter (paper Sec. III-C, Fig. 8).
//
// Quantized groups (paper Sec. V-A: "a codebook with 4096 entries for scale,
// rotation, and DC, and a codebook with 512 entries for SH coefficients"):
//   scale    (3 floats)  -> 4096-entry codebook
//   rotation (4 floats)  -> 4096-entry codebook
//   DC color (3 floats)  -> 4096-entry codebook
//   SH rest  (45 floats) ->  512-entry codebook
// At those sizes the codebooks occupy ~251 KB of float32 SRAM — the paper's
// 250 KB codebook buffer. Position and max-scale stay uncompressed in the
// coarse stream; opacity stays a raw float in the fine stream ("we only
// compress the second half" and the first half stays exact).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "gs/gaussian.hpp"
#include "vq/codebook.hpp"

namespace sgs::vq {

struct VqConfig {
  std::uint32_t scale_entries = 4096;
  std::uint32_t rotation_entries = 4096;
  std::uint32_t dc_entries = 4096;
  std::uint32_t sh_entries = 512;
  int kmeans_iters = 12;
  // Quantization-aware refinement (Lee et al. [9] in the paper): extra Lloyd
  // passes over the full dataset after initial training, letting centroids
  // absorb assignment drift.
  int refine_iters = 3;
  std::size_t max_train_samples = 65536;
  std::uint64_t seed = 42;
};

struct QuantizedIndices {
  std::uint16_t scale = 0;
  std::uint16_t rotation = 0;
  std::uint16_t dc = 0;
  std::uint16_t sh = 0;
};

class QuantizedModel {
 public:
  // Trains codebooks on the model and assigns every Gaussian.
  static QuantizedModel build(const gs::GaussianModel& model, const VqConfig& config);

  std::size_t size() const { return positions_.size(); }

  // Reconstructs Gaussian i from the coarse stream (exact position) plus
  // codebook lookups — exactly what the accelerator's HFU decodes on-chip.
  gs::Gaussian decode(std::uint32_t i) const;
  gs::GaussianModel decode_all() const;

  const QuantizedIndices& indices(std::uint32_t i) const { return indices_[i]; }

  const Codebook& scale_codebook() const { return scale_cb_; }
  const Codebook& rotation_codebook() const { return rotation_cb_; }
  const Codebook& dc_codebook() const { return dc_cb_; }
  const Codebook& sh_codebook() const { return sh_cb_; }

  // Total on-chip codebook SRAM footprint in bytes.
  std::size_t codebook_bytes() const;
  // Index payload bits per Gaussian (12+12+12+9 = 45 at default config).
  int index_bits_per_gaussian() const;

  // Binary round-trip of the whole quantized scene (magic "SGVQ": the four
  // codebooks followed by per-Gaussian position/opacity/index records).
  // Loading reproduces decode() bit-for-bit — training is expensive, so a
  // trained codec can be shipped next to the scene instead of rebuilt. The
  // file holds no derivable data (the coarse max-scale is decode(i)'s).
  // save returns false on IO failure; load throws std::runtime_error on
  // malformed input, and before allocating when a codebook or the records
  // would need more bytes than `in` still holds (`in` must be seekable).
  bool save(std::ostream& out) const;
  static QuantizedModel load(std::istream& in);
  bool save_file(const std::string& path) const;
  static QuantizedModel load_file(const std::string& path);

 private:
  std::vector<Vec3f> positions_;
  std::vector<float> opacities_;
  std::vector<QuantizedIndices> indices_;
  Codebook scale_cb_;
  Codebook rotation_cb_;
  Codebook dc_cb_;
  Codebook sh_cb_;
};

}  // namespace sgs::vq
