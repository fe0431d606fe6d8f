// Bridges from the repo's existing counter structs into the metrics
// registry: the registry is the single sink, these are the adapters the
// renderer, cache, pool, and server publish through.
//
// All functions write cumulative values as gauges under a dotted prefix
// ("cache.hits", "stage.filter_ns", ...) on MetricsRegistry::global().
// They are cold-path (per frame / per report), so the name lookups take
// the registry mutex; the ids are cached registry-side by name.
#pragma once

#include <string>

#include "core/streaming_trace.hpp"

namespace sgs::obs {

// StreamCacheStats -> one gauge per scalar kStreamCacheFields row, named
// by the row ("cache.hits"); the per-tier rows are trace-only.
void publish_cache_stats(const core::StreamCacheStats& stats,
                         const std::string& prefix = "cache");

// StageTimingsNs -> one gauge per kStageFields row, named by the row and
// its unit ("stage.filter_ns").
void publish_stage_timings(const core::StageTimingsNs& timings,
                           const std::string& prefix = "stage");

// Pool + async-lane counters -> gauges: pool.parallelism,
// pool.jobs_completed, pool.submit_wait_ns, async.tasks_completed,
// async.task_errors.
void publish_parallel_stats();

}  // namespace sgs::obs
