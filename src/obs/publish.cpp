#include "obs/publish.hpp"

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace sgs::obs {

namespace {

void set_gauge(const std::string& name, std::uint64_t value) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.set(reg.gauge(name), value);
}

}  // namespace

void publish_cache_stats(const core::StreamCacheStats& stats,
                         const std::string& prefix) {
  for (const auto& row : core::kStreamCacheFields) {
    if (row.scalar != nullptr) {  // per-tier rows stay trace-only
      set_gauge(prefix + "." + row.name, stats.*row.scalar);
    }
  }
}

void publish_stage_timings(const core::StageTimingsNs& timings,
                           const std::string& prefix) {
  for (const auto& row : core::kStageFields) {
    set_gauge(prefix + "." + row.name + "_" + row.unit,
              timings.*row.scalar);
  }
}

void publish_parallel_stats() {
  set_gauge("pool.parallelism", static_cast<std::uint64_t>(parallelism()));
  set_gauge("pool.jobs_completed", pool_jobs_completed());
  set_gauge("pool.submit_wait_ns", pool_submit_wait_ns());
  set_gauge("async.tasks_completed", async_tasks_completed());
  set_gauge("async.task_errors", async_task_errors());
}

}  // namespace sgs::obs
