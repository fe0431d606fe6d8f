#include "sim/streaminggs_sim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/bitonic.hpp"
#include "gs/gaussian.hpp"
#include "sim/dram_model.hpp"
#include "sim/pipeline_dp.hpp"

namespace sgs::sim {

namespace {
enum StageIdx { kVsu = 0, kLoad, kCfu, kFfu, kSort, kRender, kStageCount };
}

SimReport simulate_streaminggs(const core::StreamingTrace& trace,
                               const StreamingGsSimOptions& options) {
  const StreamingGsHwConfig& hw = options.hw;
  const EnergyConstants& ec = options.energy;

  const double dram_bpc = hw.dram.peak_bytes_per_cycle * hw.dram.efficiency;
  const double cfu_rate =  // Gaussians per cycle, all CFUs
      static_cast<double>(hw.total_cfus()) / hw.cfu_cycles_per_gaussian;
  const double ffu_rate =
      static_cast<double>(hw.total_ffus()) / hw.ffu_cycles_per_gaussian;
  const double sort_rate =
      static_cast<double>(hw.sort_unit_count) * hw.sort_elems_per_cycle_per_unit;
  const double render_rate = static_cast<double>(hw.render_unit_count) *
                             hw.render_ops_per_cycle_per_unit;

  PipelineDp pipe(kStageCount);
  double times[kStageCount];

  // Per-frame VSU voxel-table build (one conservative projection per
  // non-empty voxel) runs before any group streams.
  {
    double prologue[kStageCount] = {};
    prologue[kVsu] =
        static_cast<double>(trace.voxel_table_steps) * hw.vsu_cycles_per_dda_step;
    pipe.push(prologue);
  }

  std::uint64_t dram_bytes = 0;
  double macs = 0.0;
  double sram_bytes_moved = 0.0;
  double codebook_bytes_read = 0.0;

  for (const core::GroupWork& g : trace.groups) {
    // VSU work for the whole group gates its first voxel.
    double vsu_cycles = static_cast<double>(g.dda_steps) * hw.vsu_cycles_per_dda_step +
                        static_cast<double>(g.edges) * hw.vsu_cycles_per_edge +
                        static_cast<double>(g.nodes) * hw.vsu_cycles_per_node;
    bool first = true;
    for (const core::VoxelWorkItem& v : g.voxels) {
      const std::uint64_t bytes = v.coarse_bytes + v.fine_bytes;
      dram_bytes += bytes;

      const double n_res = static_cast<double>(v.residents);
      const double n_coarse = static_cast<double>(v.coarse_pass);
      const double n_fine = static_cast<double>(v.fine_pass);
      const double n_blend = static_cast<double>(v.blend_ops);

      times[kVsu] = first ? vsu_cycles : 0.0;
      times[kLoad] = static_cast<double>(bytes) / dram_bpc;
      if (options.coarse_filter_enabled) {
        times[kCfu] = n_res / cfu_rate;
        times[kFfu] = n_coarse / ffu_rate;
      } else {
        times[kCfu] = 0.0;
        times[kFfu] = n_res / ffu_rate;  // every resident hits the FFUs
      }
      // Bitonic sorting units: real network stage/comparator counts, split
      // across the available units.
      times[kSort] =
          v.fine_pass > 1
              ? bitonic_sort_cycles(v.fine_pass,
                                    static_cast<std::uint32_t>(sort_rate)) /
                    static_cast<double>(hw.sort_unit_count)
              : 0.0;
      times[kRender] = n_blend / render_rate;
      pipe.push(times);
      first = false;

      // --- energy bookkeeping ---------------------------------------------
      if (options.coarse_filter_enabled) {
        macs += n_res * gs::kCoarseFilterMacs + n_coarse * gs::kFineFilterMacs;
      } else {
        macs += n_res * gs::kFineFilterMacs;
      }
      macs += n_blend * 8.0;  // conic quadratic + exp approx + blend FMA
      // Input buffer: stream in once, read once by the filter.
      sram_bytes_moved += 2.0 * static_cast<double>(bytes);
      // Codebook decode: survivors read their four entries (220 B of
      // centroid data) from the large codebook SRAM.
      const double decoded = options.coarse_filter_enabled ? n_coarse : n_res;
      codebook_bytes_read +=
          decoded * static_cast<double>(gs::kFineParams) * sizeof(float);
      // Sort + render state movement in scratch SRAM: sorted survivors and
      // per-pixel accumulators (16 B per blend op read-modify-write).
      sram_bytes_moved += n_fine * 48.0 + n_blend * 16.0;
    }
    // VSU energy: table operations are small SRAM touches.
    macs += static_cast<double>(g.dda_steps) * 6.0;  // ray step arithmetic
    sram_bytes_moved += static_cast<double>(g.edges + g.nodes) * 8.0;
  }

  // Frame write-back, folded into the makespan as trailing DRAM time.
  dram_bytes += trace.frame_write_bytes;
  const double write_cycles = static_cast<double>(trace.frame_write_bytes) / dram_bpc;

  // Out-of-core fetch traffic (residency-cache misses + prefetches paging
  // voxel groups in from the asset store). Charged *per LOD tier* at the
  // efficiency the detailed DRAM model predicts for that tier's average
  // chunk size — group payloads are single sequential bursts, and a pruned
  // L2 payload is a much smaller burst than its L0, so it earns a worse
  // efficiency per byte even as it moves fewer bytes. Folded into the
  // makespan like the write-back. Zero (and absent from stage_busy) for
  // fully-resident frames, which keeps their reports bit-identical.
  double fetch_cycles = 0.0;
  if (trace.cache.bytes_fetched > 0) {
    std::uint64_t tier_bytes_sum = 0;
    for (int t = 0; t < core::kLodTierCount; ++t) {
      tier_bytes_sum += trace.cache.tier_bytes_fetched[t];
    }
    auto charge = [&](std::uint64_t bytes, std::uint64_t fetches) {
      if (bytes == 0) return;
      const std::uint64_t chunk =
          std::max<std::uint64_t>(64, fetches > 0 ? bytes / fetches : bytes);
      const double eff = DramModel::effective_efficiency(chunk);
      fetch_cycles +=
          static_cast<double>(bytes) / (hw.dram.peak_bytes_per_cycle * eff);
    };
    if (tier_bytes_sum > 0) {
      for (int t = 0; t < core::kLodTierCount; ++t) {
        charge(trace.cache.tier_bytes_fetched[t],
               trace.cache.tier_misses[t] + trace.cache.tier_prefetches[t]);
      }
      // Traffic a producer did not tier-attribute (hand-built traces)
      // still costs cycles at the all-up average chunk.
      if (tier_bytes_sum < trace.cache.bytes_fetched) {
        charge(trace.cache.bytes_fetched - tier_bytes_sum,
               trace.cache.misses + trace.cache.prefetches);
      }
    } else {
      charge(trace.cache.bytes_fetched,
             trace.cache.misses + trace.cache.prefetches);
    }
    dram_bytes += trace.cache.bytes_fetched;
  }

  SimReport report;
  report.machine = "StreamingGS";
  report.cycles = pipe.makespan() + write_cycles + fetch_cycles;
  report.seconds = report.cycles / (hw.clock_ghz * 1e9);
  report.fps = report.seconds > 0.0 ? 1.0 / report.seconds : 0.0;
  report.dram_bytes = dram_bytes;

  report.energy.dram_pj =
      static_cast<double>(dram_bytes) * hw.dram.energy_pj_per_byte;
  report.energy.sram_pj = sram_bytes_moved * ec.sram_small_pj_per_byte +
                          codebook_bytes_read * ec.sram_large_pj_per_byte;
  report.energy.compute_pj = macs * ec.mac_pj;
  report.energy.static_pj = ec.accel_static_watts * report.seconds * 1e12;

  if (trace.cache.bytes_fetched > 0) report.stage_busy["fetch"] = fetch_cycles;
  report.stage_busy["vsu"] = pipe.stage_busy(kVsu);
  report.stage_busy["load"] = pipe.stage_busy(kLoad);
  report.stage_busy["cfu"] = pipe.stage_busy(kCfu);
  report.stage_busy["ffu"] = pipe.stage_busy(kFfu);
  report.stage_busy["sort"] = pipe.stage_busy(kSort);
  report.stage_busy["render"] = pipe.stage_busy(kRender);

  // Software-model stage times, when the renderer collected them.
  const core::StageTimingsNs sw = trace.total_stage_ns();
  if (sw.total() > 0) {
    for (const auto& row : core::kStageFields) {
      report.sw_stage_ns[row.name] = static_cast<double>(sw.*row.scalar);
    }
  }
  return report;
}

std::string check_buffer_capacity(const core::StreamingTrace& trace,
                                  const StreamingGsHwConfig& hw,
                                  std::size_t codebook_bytes) {
  std::ostringstream problems;
  if (static_cast<double>(codebook_bytes) > hw.codebook_kb * 1024.0) {
    problems << "codebook " << codebook_bytes << " B exceeds "
             << hw.codebook_kb << " KB buffer; ";
  }
  // The input buffer is double-buffered: half of it holds one in-flight
  // chunk. Voxels larger than a chunk stream in multiple bursts, which is
  // fine; what must fit in scratch is a group's accumulators + survivor
  // queue. Accumulator: RGBA float + running max depth per pixel (20 B).
  std::uint64_t max_group_px = 0;
  std::uint64_t max_survivors = 0;
  for (const auto& g : trace.groups) {
    max_group_px = std::max<std::uint64_t>(max_group_px, g.rays);
    for (const auto& v : g.voxels) {
      max_survivors = std::max<std::uint64_t>(max_survivors, v.fine_pass);
    }
  }
  const double accum_bytes = static_cast<double>(max_group_px) * 20.0;
  // Sorted survivor records: mean/conic/color/opacity/depth = 40 B.
  const double survivor_bytes = static_cast<double>(max_survivors) * 40.0;
  if (accum_bytes + survivor_bytes > hw.scratch_kb * 1024.0) {
    problems << "scratch demand " << (accum_bytes + survivor_bytes)
             << " B exceeds " << hw.scratch_kb << " KB; ";
  }
  return problems.str();
}

}  // namespace sgs::sim
