#include "core/trace_io.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

namespace sgs::core {

namespace {

template <typename T>
void put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("truncated trace stream");
  return v;
}

// The per-group timing block: the kGroup-scope stage rows, in table order.
template <typename Timing, typename F>
void for_each_group_timing(Timing& timing, F&& f) {
  for (const auto& row : kStageFields) {
    if (row.scope == CounterScope::kGroup) f(timing.*row.scalar);
  }
}

}  // namespace

bool write_trace(std::ostream& out, const StreamingTrace& trace) {
  put<std::uint32_t>(out, kTraceMagic);
  put<std::uint32_t>(out, kTraceVersion);
  put<std::int32_t>(out, trace.group_size);
  put<std::uint64_t>(out, trace.pixel_count);
  put<std::uint64_t>(out, trace.frame_write_bytes);
  put<std::uint64_t>(out, trace.voxel_table_steps);
  put<std::uint8_t>(out, trace.plan_reused ? 1 : 0);
  put<std::uint64_t>(out, trace.plan_build_ns);
  for_each_counter(
      kStreamCacheFields,
      [&out](std::uint64_t v) { put<std::uint64_t>(out, v); }, trace.cache);
  put<std::uint64_t>(out, trace.queue_wait_ns);
  put<std::uint64_t>(out, trace.groups.size());
  for (const GroupWork& g : trace.groups) {
    put<std::uint32_t>(out, g.rays);
    put<std::uint64_t>(out, g.dda_steps);
    put<std::uint32_t>(out, g.nodes);
    put<std::uint32_t>(out, g.edges);
    for_each_group_timing(
        g.timing_ns, [&out](std::uint64_t v) { put<std::uint64_t>(out, v); });
    put<std::uint64_t>(out, g.voxels.size());
    for (const VoxelWorkItem& v : g.voxels) {
      put<std::uint32_t>(out, v.residents);
      put<std::uint32_t>(out, v.coarse_pass);
      put<std::uint32_t>(out, v.fine_pass);
      put<std::uint64_t>(out, v.coarse_bytes);
      put<std::uint64_t>(out, v.fine_bytes);
      put<std::uint64_t>(out, v.blend_ops);
    }
  }
  return static_cast<bool>(out);
}

bool write_trace_file(const std::string& path, const StreamingTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return write_trace(out, trace);
}

StreamingTrace read_trace(std::istream& in) {
  if (get<std::uint32_t>(in) != kTraceMagic) {
    throw std::runtime_error("bad trace magic");
  }
  if (get<std::uint32_t>(in) != kTraceVersion) {
    throw std::runtime_error("unsupported trace version");
  }
  StreamingTrace trace;
  trace.group_size = get<std::int32_t>(in);
  trace.pixel_count = get<std::uint64_t>(in);
  trace.frame_write_bytes = get<std::uint64_t>(in);
  trace.voxel_table_steps = get<std::uint64_t>(in);
  trace.plan_reused = get<std::uint8_t>(in) != 0;
  trace.plan_build_ns = get<std::uint64_t>(in);
  for_each_counter(
      kStreamCacheFields,
      [&in](std::uint64_t& v) { v = get<std::uint64_t>(in); }, trace.cache);
  trace.queue_wait_ns = get<std::uint64_t>(in);
  const std::uint64_t n_groups = get<std::uint64_t>(in);
  // Sanity cap: one group per pixel is the theoretical maximum.
  if (n_groups > trace.pixel_count + 1) {
    throw std::runtime_error("implausible group count in trace");
  }
  // Records are appended as they are read, never sized from the header's
  // counts: memory stays bounded by the input, and a count the stream does
  // not back fails as truncation.
  for (std::uint64_t i = 0; i < n_groups; ++i) {
    GroupWork& g = trace.groups.emplace_back();
    g.rays = get<std::uint32_t>(in);
    g.dda_steps = get<std::uint64_t>(in);
    g.nodes = get<std::uint32_t>(in);
    g.edges = get<std::uint32_t>(in);
    for_each_group_timing(
        g.timing_ns, [&in](std::uint64_t& v) { v = get<std::uint64_t>(in); });
    const std::uint64_t n_voxels = get<std::uint64_t>(in);
    if (n_voxels > (std::uint64_t{1} << 32)) {
      throw std::runtime_error("implausible voxel count in trace");
    }
    for (std::uint64_t k = 0; k < n_voxels; ++k) {
      VoxelWorkItem& v = g.voxels.emplace_back();
      v.residents = get<std::uint32_t>(in);
      v.coarse_pass = get<std::uint32_t>(in);
      v.fine_pass = get<std::uint32_t>(in);
      v.coarse_bytes = get<std::uint64_t>(in);
      v.fine_bytes = get<std::uint64_t>(in);
      v.blend_ops = get<std::uint64_t>(in);
    }
  }
  return trace;
}

StreamingTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace: " + path);
  return read_trace(in);
}

}  // namespace sgs::core
