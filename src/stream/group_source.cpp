#include "stream/group_source.hpp"

#include <cassert>

namespace sgs::stream {

void GroupSource::begin_frame(const FrameIntent&,
                              std::span<const voxel::DenseVoxelId>) {}

void GroupSource::end_frame() {}

core::StreamCacheStats GroupSource::stats() const { return {}; }

ResidentGroupSource::ResidentGroupSource(const core::StreamingScene& scene)
    : scene_(&scene) {
  assert(scene.params_resident() &&
         "resident source needs a prepared scene with resident columns");
}

GroupView ResidentGroupSource::acquire(voxel::DenseVoxelId v) {
  GroupView view;
  view.model_indices = scene_->grid().gaussians_in(v);
  view.cols = &scene_->group_columns();
  view.first = scene_->group_offset(v);
  return view;
}

}  // namespace sgs::stream
