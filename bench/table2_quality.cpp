// Table II reproduction: rendering quality (PSNR) of the full streaming
// pipeline vs. the original tile-centric pipeline across the six scenes and
// three 3DGS algorithms.
//
// The paper compares both pipelines against ground-truth photos and finds
// an average drop of 0.04 dB. Without photos, the reference here is the
// tile-centric render of the unmodified model; "Original" rows show the
// tile render of the fine-tuned+quantized model against that reference
// (appearance cost of the model transforms alone) and "Ours" rows show the
// streaming render of the same model (adding voxel-ordering effects). The
// reproduced quantity is the small Original-vs-Ours delta.
//
//   ./table2_quality [--model_scale 0.03] [--res_scale 0.35]
//                    [--finetune_iters 300]
#include "bench_common.hpp"
#include "common/cli.hpp"
#include "core/finetune.hpp"
#include "core/streaming_renderer.hpp"
#include "metrics/psnr.hpp"
#include "metrics/ssim.hpp"
#include "render/tile_renderer.hpp"
#include "scene/presets.hpp"
#include "scene/variants.hpp"

int main(int argc, char** argv) {
  using namespace sgs;
  CliArgs args(argc, argv);
  const float model_scale = static_cast<float>(args.get_double("model_scale", 0.03));
  const float res_scale = static_cast<float>(args.get_double("res_scale", 0.35));
  const int ft_iters = args.get_int("finetune_iters", 300);

  bench::print_header(
      "Table II - rendering quality (PSNR) across datasets and algorithms",
      "average drop of ours vs. original pipeline: 0.04 dB");

  bench::Table table({"algorithm", "scene", "Original [dB]", "Ours [dB]",
                      "delta [dB]", "SSIM (ours)"});

  double delta_sum = 0.0;
  int delta_count = 0;

  for (const scene::Algorithm algo : scene::kAllAlgorithms) {
    for (const scene::ScenePreset p : scene::kAllPresets) {
      const auto& info = scene::preset_info(p);
      const auto base = scene::apply_algorithm(
          scene::make_preset_scene(p, model_scale), algo, 7);
      int w = 0, h = 0;
      scene::scaled_resolution(p, res_scale, w, h);
      const auto cam = scene::make_preset_camera(p, w, h);

      // Ground-truth proxy: tile render of the unmodified model.
      const auto reference = render::render_tile_centric(base, cam);

      // The paper's training recipe: boundary-aware fine-tuning, then
      // quantization-aware VQ (StreamingScene::prepare trains codebooks).
      core::StreamingConfig scfg;
      scfg.voxel_size = info.default_voxel_size;
      scfg.use_vq = true;
      core::FinetuneConfig ft;
      ft.iterations = ft_iters;
      ft.refresh_every = std::max(50, ft_iters / 4);
      const auto tuned =
          boundary_aware_finetune(base, scfg, cam, reference.image, ft);

      const auto scene_prepared = core::StreamingScene::prepare(tuned.model, scfg);
      // "Original pipeline" on the deployed (tuned+quantized) model.
      const auto original_pipeline =
          render::render_tile_centric(scene_prepared.quantized()->decode_all(),
                                      cam);
      // "Ours": the streaming pipeline on the same model.
      const auto ours = core::render_streaming(scene_prepared, cam);

      const double psnr_orig =
          metrics::psnr_capped(original_pipeline.image, reference.image);
      const double psnr_ours = metrics::psnr_capped(ours.image, reference.image);
      const double delta = psnr_ours - psnr_orig;
      delta_sum += delta;
      ++delta_count;

      table.row({scene::algorithm_name(algo), info.name,
                 bench::fmt(psnr_orig, 2), bench::fmt(psnr_ours, 2),
                 bench::fmt(delta, 2),
                 bench::fmt(metrics::ssim(ours.image, reference.image), 4)});
    }
  }
  table.print();
  std::printf(
      "\n  mean delta (ours - original pipeline): %.3f dB "
      "(paper: -0.04 dB average drop)\n",
      delta_sum / delta_count);
  return 0;
}
