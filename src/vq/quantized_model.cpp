#include "vq/quantized_model.hpp"

#include <cassert>
#include <fstream>
#include <stdexcept>

namespace sgs::vq {

namespace {

// Extracts one parameter group from the model as a flat array.
std::vector<float> extract_group(const gs::GaussianModel& model, int which) {
  const std::size_t n = model.size();
  std::vector<float> out;
  switch (which) {
    case 0:  // scale
      out.reserve(n * 3);
      for (const auto& g : model.gaussians) {
        out.push_back(g.scale.x);
        out.push_back(g.scale.y);
        out.push_back(g.scale.z);
      }
      break;
    case 1:  // rotation
      out.reserve(n * 4);
      for (const auto& g : model.gaussians) {
        const Quatf q = g.rotation.normalized();
        out.push_back(q.w);
        out.push_back(q.x);
        out.push_back(q.y);
        out.push_back(q.z);
      }
      break;
    case 2:  // DC
      out.reserve(n * 3);
      for (const auto& g : model.gaussians) {
        out.push_back(g.sh[0].x);
        out.push_back(g.sh[0].y);
        out.push_back(g.sh[0].z);
      }
      break;
    case 3:  // SH rest: 15 coefficients x RGB = 45, coefficient-major
      out.reserve(n * 45);
      for (const auto& g : model.gaussians) {
        for (int k = 1; k < gs::kShCoeffCount; ++k) {
          out.push_back(g.sh[static_cast<std::size_t>(k)].x);
          out.push_back(g.sh[static_cast<std::size_t>(k)].y);
          out.push_back(g.sh[static_cast<std::size_t>(k)].z);
        }
      }
      break;
    default: assert(false);
  }
  return out;
}

TrainedCodebook train_group(const gs::GaussianModel& model, int which,
                            std::size_t dim, std::uint32_t entries,
                            const VqConfig& cfg) {
  const std::vector<float> data = extract_group(model, which);
  KMeansConfig kc;
  kc.k = entries;
  kc.max_iters = cfg.kmeans_iters;
  kc.max_train_samples = cfg.max_train_samples;
  kc.seed = cfg.seed + static_cast<std::uint64_t>(which) * 101;
  TrainedCodebook tc = train_codebook(data, dim, kc);

  // Quantization-aware refinement: full-data Lloyd passes. Each pass is a
  // kmeans run seeded implicitly by re-running with more data; we emulate by
  // re-running assignment+update manually.
  for (int r = 0; r < cfg.refine_iters; ++r) {
    const std::size_t k = tc.codebook.size();
    const std::size_t n = data.size() / dim;
    std::vector<double> sums(k * dim, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = tc.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) {
        sums[static_cast<std::size_t>(c) * dim + d] += data[i * dim + d];
      }
    }
    std::vector<float> entries_new(tc.codebook.raw().begin(), tc.codebook.raw().end());
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d) {
        entries_new[c * dim + d] =
            static_cast<float>(sums[c * dim + d] / static_cast<double>(counts[c]));
      }
    }
    tc.codebook = Codebook(dim, std::move(entries_new));
    for (std::size_t i = 0; i < n; ++i) {
      tc.assignment[i] = tc.codebook.nearest({data.data() + i * dim, dim});
    }
  }
  return tc;
}

}  // namespace

QuantizedModel QuantizedModel::build(const gs::GaussianModel& model,
                                     const VqConfig& config) {
  QuantizedModel qm;
  const std::size_t n = model.size();
  qm.positions_.reserve(n);
  qm.opacities_.reserve(n);
  for (const auto& g : model.gaussians) {
    qm.positions_.push_back(g.position);
    qm.opacities_.push_back(g.opacity);
  }

  TrainedCodebook scale = train_group(model, 0, 3, config.scale_entries, config);
  TrainedCodebook rot = train_group(model, 1, 4, config.rotation_entries, config);
  TrainedCodebook dc = train_group(model, 2, 3, config.dc_entries, config);
  TrainedCodebook sh = train_group(model, 3, 45, config.sh_entries, config);

  qm.indices_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    qm.indices_[i].scale = static_cast<std::uint16_t>(scale.assignment[i]);
    qm.indices_[i].rotation = static_cast<std::uint16_t>(rot.assignment[i]);
    qm.indices_[i].dc = static_cast<std::uint16_t>(dc.assignment[i]);
    qm.indices_[i].sh = static_cast<std::uint16_t>(sh.assignment[i]);
  }
  qm.scale_cb_ = std::move(scale.codebook);
  qm.rotation_cb_ = std::move(rot.codebook);
  qm.dc_cb_ = std::move(dc.codebook);
  qm.sh_cb_ = std::move(sh.codebook);
  return qm;
}

gs::Gaussian QuantizedModel::decode(std::uint32_t i) const {
  gs::Gaussian g;
  g.position = positions_[i];
  g.opacity = opacities_[i];
  const auto s = scale_cb_.entry(indices_[i].scale);
  g.scale = {s[0], s[1], s[2]};
  const auto r = rotation_cb_.entry(indices_[i].rotation);
  g.rotation = Quatf{r[0], r[1], r[2], r[3]};
  const auto d = dc_cb_.entry(indices_[i].dc);
  g.sh[0] = {d[0], d[1], d[2]};
  const auto rest = sh_cb_.entry(indices_[i].sh);
  for (int k = 1; k < gs::kShCoeffCount; ++k) {
    const std::size_t base = static_cast<std::size_t>(k - 1) * 3;
    g.sh[static_cast<std::size_t>(k)] = {rest[base], rest[base + 1], rest[base + 2]};
  }
  return g;
}

gs::GaussianModel QuantizedModel::decode_all() const {
  gs::GaussianModel m;
  m.gaussians.reserve(size());
  for (std::uint32_t i = 0; i < size(); ++i) m.gaussians.push_back(decode(i));
  return m;
}

namespace {

constexpr std::uint32_t kVqMagic = 0x51564753;  // "SGVQ"
constexpr std::uint32_t kVqVersion = 1;

template <typename T>
void put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("truncated quantized model stream");
  return v;
}

}  // namespace

bool QuantizedModel::save(std::ostream& out) const {
  put<std::uint32_t>(out, kVqMagic);
  put<std::uint32_t>(out, kVqVersion);
  scale_cb_.save(out);
  rotation_cb_.save(out);
  dc_cb_.save(out);
  sh_cb_.save(out);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(size()));
  for (std::size_t i = 0; i < size(); ++i) {
    put<float>(out, positions_[i].x);
    put<float>(out, positions_[i].y);
    put<float>(out, positions_[i].z);
    put<float>(out, opacities_[i]);
    put<std::uint16_t>(out, indices_[i].scale);
    put<std::uint16_t>(out, indices_[i].rotation);
    put<std::uint16_t>(out, indices_[i].dc);
    put<std::uint16_t>(out, indices_[i].sh);
  }
  return static_cast<bool>(out);
}

QuantizedModel QuantizedModel::load(std::istream& in) {
  if (get<std::uint32_t>(in) != kVqMagic) {
    throw std::runtime_error("bad quantized model magic");
  }
  if (get<std::uint32_t>(in) != kVqVersion) {
    throw std::runtime_error("unsupported quantized model version");
  }
  // Every count the input claims is checked against the bytes it still
  // holds before anything is sized from it: a crafted header must not make
  // load allocate more than the input could back.
  const std::streamoff begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(begin);
  if (begin < 0 || end < begin || !in) {
    throw std::runtime_error("quantized model stream is not seekable");
  }
  const auto bytes_left = [&]() -> std::uint64_t {
    const std::streamoff pos = in.tellg();
    return pos < 0 || pos > end ? 0 : static_cast<std::uint64_t>(end - pos);
  };
  QuantizedModel qm;
  qm.scale_cb_ = Codebook::load(in, bytes_left());
  qm.rotation_cb_ = Codebook::load(in, bytes_left());
  qm.dc_cb_ = Codebook::load(in, bytes_left());
  qm.sh_cb_ = Codebook::load(in, bytes_left());
  if (qm.scale_cb_.dim() != 3 || qm.rotation_cb_.dim() != 4 ||
      qm.dc_cb_.dim() != 3 || qm.sh_cb_.dim() != 45) {
    throw std::runtime_error("quantized model codebooks have wrong dims");
  }
  const std::uint64_t n = get<std::uint64_t>(in);
  if (n > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("implausible quantized model size");
  }
  // Per-Gaussian record: position (3 f32), opacity (f32), 4 u16 indices.
  constexpr std::uint64_t kRecordBytes = 4 * 4 + 4 * 2;
  if (n * kRecordBytes > bytes_left()) {
    throw std::runtime_error("quantized model records exceed the input");
  }
  qm.positions_.resize(n);
  qm.opacities_.resize(n);
  qm.indices_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    qm.positions_[i].x = get<float>(in);
    qm.positions_[i].y = get<float>(in);
    qm.positions_[i].z = get<float>(in);
    qm.opacities_[i] = get<float>(in);
    qm.indices_[i].scale = get<std::uint16_t>(in);
    qm.indices_[i].rotation = get<std::uint16_t>(in);
    qm.indices_[i].dc = get<std::uint16_t>(in);
    qm.indices_[i].sh = get<std::uint16_t>(in);
    if (qm.indices_[i].scale >= qm.scale_cb_.size() ||
        qm.indices_[i].rotation >= qm.rotation_cb_.size() ||
        qm.indices_[i].dc >= qm.dc_cb_.size() ||
        qm.indices_[i].sh >= qm.sh_cb_.size()) {
      throw std::runtime_error("quantized index out of codebook range");
    }
  }
  return qm;
}

bool QuantizedModel::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return save(out);
}

QuantizedModel QuantizedModel::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open quantized model: " + path);
  return load(in);
}

std::size_t QuantizedModel::codebook_bytes() const {
  return scale_cb_.bytes() + rotation_cb_.bytes() + dc_cb_.bytes() + sh_cb_.bytes();
}

int QuantizedModel::index_bits_per_gaussian() const {
  return scale_cb_.index_bits() + rotation_cb_.index_bits() + dc_cb_.index_bits() +
         sh_cb_.index_bits();
}

}  // namespace sgs::vq
