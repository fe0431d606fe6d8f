#include "obs/publish.hpp"

#include <ostream>

#include "common/parallel.hpp"

namespace sgs::obs {

void write_frame_metrics_jsonl(std::ostream& out, std::uint64_t frame,
                               const core::StageTimingsNs& stages,
                               const core::StreamCacheStats& cache) {
  out << "{\"frame\":" << frame << ",\"counters\":{},\"gauges\":{";
  for (const auto& row : core::kStageFields) {
    out << "\"stage." << row.name << '_' << row.unit
        << "\":" << stages.*row.scalar << ',';
  }
  for (const auto& row : core::kStreamCacheFields) {
    if (row.scalar != nullptr) {  // per-tier rows stay trace-only
      out << "\"cache." << row.name << "\":" << cache.*row.scalar << ',';
    }
  }
  out << "\"pool.parallelism\":" << parallelism()
      << ",\"pool.jobs_completed\":" << pool_jobs_completed()
      << ",\"pool.submit_wait_ns\":" << pool_submit_wait_ns()
      << ",\"async.tasks_completed\":" << async_tasks_completed()
      << ",\"async.task_errors\":" << async_task_errors()
      << "},\"histograms\":{}}\n";
}

}  // namespace sgs::obs
