// End-to-end integration tests: preset scenes through both pipelines, the
// experiment harness, and the cross-model invariants of DESIGN.md §4.
#include <gtest/gtest.h>

#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "metrics/ssim.hpp"
#include "sim/experiment.hpp"

namespace sgs {
namespace {

sim::ExperimentConfig tiny_config(scene::ScenePreset p) {
  sim::ExperimentConfig cfg;
  cfg.preset = p;
  cfg.model_scale = 0.02f;
  cfg.resolution_scale = 0.25f;
  return cfg;
}

class PresetIntegration
    : public ::testing::TestWithParam<scene::ScenePreset> {};

TEST_P(PresetIntegration, FullPipelineInvariants) {
  sim::SceneExperiment exp(tiny_config(GetParam()));
  const auto& info = scene::preset_info(GetParam());

  // Reference render produced something visible.
  const auto& ref = exp.reference();
  EXPECT_GT(ref.trace.projected_count, 0u);
  EXPECT_GT(ref.trace.blend_ops, 0u);

  // Full streaming variant.
  auto full = exp.run_variant(sim::Variant::kFull);

  // Invariant: quality against the reference is reasonable at tiny scale.
  EXPECT_GT(full.psnr_vs_reference_db, 18.0) << info.name;
  EXPECT_GT(full.ssim_vs_reference, 0.55) << info.name;

  // Invariant: streaming DRAM traffic far below tile-centric.
  EXPECT_LT(full.stats.total_dram_bytes(), ref.trace.traffic.total() / 2);

  // Invariant: hierarchical filtering funnel is strictly ordered.
  EXPECT_LE(full.stats.fine_pass, full.stats.coarse_pass);
  EXPECT_LE(full.stats.coarse_pass, full.stats.gaussians_streamed);
  EXPECT_GT(full.stats.filtered_fraction(), 0.2) << info.name;

  // Invariant: the accelerator beats the GPU model and GSCore on time and
  // energy (Fig. 11 ordering), at every preset.
  const double gpu_s = exp.gpu().report.seconds;
  EXPECT_GT(gpu_s / full.accel.seconds, 4.0) << info.name;
  EXPECT_GT(exp.gscore().seconds, full.accel.seconds) << info.name;
  EXPECT_GT(exp.gpu().report.energy_mj(), full.accel.energy_mj());

  // Buffer capacity: the workload fits the paper's SRAM budget.
  const auto* qm = exp.streaming_scene(true).quantized();
  ASSERT_NE(qm, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetIntegration,
    ::testing::ValuesIn(scene::kAllPresets.begin(), scene::kAllPresets.end()),
    [](const ::testing::TestParamInfo<scene::ScenePreset>& info) {
      return scene::preset_info(info.param).name;
    });

TEST(Integration, VariantOrderingMatchesPaper) {
  // Fig. 11: StreamingGS > w/o CGF > w/o VQ+CGF in speedup; full design has
  // the lowest DRAM traffic.
  sim::SceneExperiment exp(tiny_config(scene::ScenePreset::kTrain));
  auto no_vq_cgf = exp.run_variant(sim::Variant::kNoVqNoCgf);
  auto no_cgf = exp.run_variant(sim::Variant::kNoCgf);
  auto full = exp.run_variant(sim::Variant::kFull);

  EXPECT_LT(full.accel.seconds, no_cgf.accel.seconds);
  EXPECT_LT(no_cgf.accel.seconds, no_vq_cgf.accel.seconds);
  EXPECT_LT(full.stats.total_dram_bytes(), no_cgf.stats.total_dram_bytes());
  EXPECT_LT(no_cgf.stats.total_dram_bytes(),
            no_vq_cgf.stats.total_dram_bytes());
  // Energy ordering follows traffic.
  EXPECT_LT(full.accel.energy_mj(), no_cgf.accel.energy_mj());
  EXPECT_LT(no_cgf.accel.energy_mj(), no_vq_cgf.accel.energy_mj());
}

TEST(Integration, VqQualityCost) {
  // VQ's image cost (vs the no-VQ streaming render) must be bounded: the
  // paper's quantization-aware codebooks lose almost nothing; ours are
  // k-means-only and allowed a few dB, but must stay visually close.
  sim::SceneExperiment exp(tiny_config(scene::ScenePreset::kPlayroom));
  auto raw = exp.run_variant(sim::Variant::kNoVqNoCgf);
  auto full = exp.run_variant(sim::Variant::kFull);
  EXPECT_GT(full.ssim_vs_reference, raw.ssim_vs_reference - 0.15);
}

TEST(Integration, StreamingSceneAccessors) {
  sim::SceneExperiment exp(tiny_config(scene::ScenePreset::kLego));
  const auto& scene_vq = exp.streaming_scene(true);
  EXPECT_NE(scene_vq.quantized(), nullptr);
  EXPECT_EQ(scene_vq.quantized()->size(), exp.model().size());
  EXPECT_EQ(scene_vq.group_columns().size(), exp.model().size());
  const auto& scene_raw = exp.streaming_scene(false);
  EXPECT_EQ(scene_raw.quantized(), nullptr);
  EXPECT_EQ(scene_raw.group_columns().size(), exp.model().size());
}

TEST(Integration, SyntheticVsRealWorldStructure) {
  // Characterization sanity (paper Fig. 3/4): real-world scenes are heavier
  // than synthetic ones in absolute GPU frame time at equal scale factors.
  sim::SceneExperiment lego(tiny_config(scene::ScenePreset::kLego));
  sim::SceneExperiment truck(tiny_config(scene::ScenePreset::kTruck));
  EXPECT_GT(truck.model().size(), lego.model().size());
  EXPECT_GT(truck.gpu().report.seconds, lego.gpu().report.seconds);
}

TEST(Integration, VariantNameStrings) {
  EXPECT_STREQ(sim::variant_name(sim::Variant::kFull), "StreamingGS");
  EXPECT_STREQ(sim::variant_name(sim::Variant::kNoCgf), "w/o CGF");
  EXPECT_STREQ(sim::variant_name(sim::Variant::kNoVqNoCgf), "w/o VQ+CGF");
}

}  // namespace
}  // namespace sgs
