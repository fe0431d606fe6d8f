// Binary serialization of streaming work traces.
//
// A functional render on a large scene takes minutes; hardware design-space
// sweeps re-simulate the same trace hundreds of times. Persisting traces
// decouples the two: render once, explore offline (the accelerator_dse
// example and CI sweeps both consume saved traces).
//
// Format: little-endian, magic "SGST" + version, fixed-width fields; no
// host-struct layout leaks into the file.
#pragma once

#include <iosfwd>
#include <string>

#include "core/streaming_trace.hpp"

namespace sgs::core {

inline constexpr std::uint32_t kTraceMagic = 0x54534753;  // "SGST"
// v2: plan reuse flag + per-stage software timings (staged frame pipeline).
// v3: per-frame residency-cache counters (out-of-core streaming).
// v4: per-tier cache counters + upgrade count (adaptive LOD streaming).
// v5: failure-domain counters — fetch_errors / degraded_groups /
//     failed_groups (fault-isolated streaming).
// v6: per-group fetch/decode stage timings — synchronous miss stall time
//     split out of the render stages (observability).
// v7: coarse_fallbacks — demand acquires served from the always-resident
//     coarse floor because their fetch would have missed the frame's
//     deadline (zero-stall streaming).
// v8: network counters — net_bytes / net_stall_ns (completed backend
//     transfer traffic and time) and abr_demotions (tier demotions by the
//     LodPolicy throughput term) for network-backed streaming.
// v9: serving-host fields — scenes (scene shards the host held),
//     admission_rejects (cumulative host rejects at commit), and
//     queue_wait_ns (time the frame waited in the multiplexed scheduler's
//     ready queue) for scale-out serving.
// v10: v9 without scenes / admission_rejects (host-level, they stay in
//     serve::ServerReport); the cache and stage-timing blocks follow the
//     kStreamCacheFields / kStageFields row order of streaming_trace.hpp.
inline constexpr std::uint32_t kTraceVersion = 10;

// Returns false on IO failure.
bool write_trace(std::ostream& out, const StreamingTrace& trace);
bool write_trace_file(const std::string& path, const StreamingTrace& trace);

// Throws std::runtime_error on malformed input (bad magic/version,
// truncation, or implausible counts).
StreamingTrace read_trace(std::istream& in);
StreamingTrace read_trace_file(const std::string& path);

}  // namespace sgs::core
