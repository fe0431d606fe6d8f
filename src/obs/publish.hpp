// The per-frame metrics line `vr_walkthrough --trace` appends to its
// `.metrics.jsonl`, written straight from the counter tables in
// core/streaming_trace.hpp and the pool / async-lane counters. Every gauge
// name is made here, so the naming rule lives in one place.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "core/streaming_trace.hpp"

namespace sgs::obs {

// One frame as one JSON object on one '\n'-terminated line:
//   {"frame":N,"counters":{},"gauges":{...},"histograms":{}}
// The gauges, in order:
//   - stage.<name>_<unit>, one per kStageFields row: `stages`;
//   - cache.<name>, one per scalar kStreamCacheFields row: `cache` (the
//     per-tier rows are trace-only);
//   - pool.parallelism, pool.jobs_completed, pool.submit_wait_ns,
//     async.tasks_completed, async.task_errors: read from the pool and the
//     async lane, cumulative since process start.
// Identical inputs (and pool state) give identical bytes.
void write_frame_metrics_jsonl(std::ostream& out, std::uint64_t frame,
                               const core::StageTimingsNs& stages,
                               const core::StreamCacheStats& cache);

}  // namespace sgs::obs
