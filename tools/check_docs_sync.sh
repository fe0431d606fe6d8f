#!/usr/bin/env bash
# Docs-sync check: the documented public contracts must not drift from
# their headers, and docs/ must not ship TODO markers. Runs as the
# `docs_sync` ctest and as a CI step; no dependencies beyond grep.
#
# For each contract below, every listed identifier must appear BOTH in the
# named header (renaming it without a docs pass fails here first) AND
# somewhere in the normative docs set (docs/*.md, src/stream/README.md,
# README.md) — so the docs keep naming the real API surface.
set -u
cd "$(dirname "$0")/.."

DOCS="README.md docs/*.md src/stream/README.md"
status=0

fail() {
  echo "DOCS-SYNC: $1"
  status=1
}

check_contract() {
  local name="$1" header="$2"
  shift 2
  [ -f "$header" ] || { fail "$name: header $header is missing"; return; }
  for ident in "$@"; do
    if ! grep -q "\b$ident\b" "$header"; then
      fail "$name: '$ident' no longer appears in $header (renamed without a docs pass?)"
    fi
    # shellcheck disable=SC2086
    if ! grep -q "\b$ident\b" $DOCS 2>/dev/null; then
      fail "$name: '$ident' is undocumented (not found in $DOCS)"
    fi
  done
}

# 1. Residency pinning: the refcounted pin path (the only one) plus
#    per-viewer attribution.
check_contract "pin contract" src/stream/residency_cache.hpp \
  pin_plan unpin_plan acquire_outcome prefetch

# 2. The GroupSource seam the pipeline streams voxel groups through.
check_contract "GroupSource contract" src/stream/group_source.hpp \
  GroupSource GroupView acquire release FrameIntent

# 3. The async FIFO lane prefetch batches drain on.
check_contract "async lane contract" src/common/parallel.hpp \
  async_submit async_wait_idle

# 4. The serving layer's session lifecycle and reporting; each session
#    streams through the same per-frame front-end a single viewer uses.
check_contract "serve contract" src/serve/scene_server.hpp \
  SceneServer StreamingLoader open_session render_frame ServerReport

# 4b. Serve scale-out: the multiplexed session state machine, typed
#     admission control, and multi-scene shard surface.
check_contract "serve scheduler contract" src/serve/scene_server.hpp \
  SessionState max_concurrent_frames queue_wait_ns fairness_index
check_contract "serve admission contract" src/serve/scene_server.hpp \
  max_sessions try_open_session AdmissionResult AdmissionRejectReason \
  AdmissionRejectedError close_session admission_rejects
check_contract "serve shard contract" src/serve/scene_server.hpp \
  shard_budgets shard_rebalance_frames scene_count

# 5. The LOD tier surface: store tiers, tier selection, cache tagging.
check_contract "LOD contract" src/stream/lod_policy.hpp \
  LodPolicy TierSelection select_frame_tiers force_tier0

# 6. The failure domain: typed stream errors and the recoverable read path.
check_contract "failure contract" src/stream/stream_error.hpp \
  StreamError StreamErrorKind StreamException
check_contract "failure read-path contract" src/stream/asset_store.hpp \
  read_group_checked
check_contract "failure retry contract" src/stream/residency_cache.hpp \
  max_fetch_attempts PrefetchResult prefetch_checked
check_contract "async error channel contract" src/common/parallel.hpp \
  async_task_errors async_take_errors

# 7. SIMD dispatch & layout: the runtime ISA-dispatch surface and the
#    batched SoA kernels the per-Gaussian hot path runs on.
check_contract "SIMD dispatch contract" src/common/simd.hpp \
  IsaLevel detect_isa active_isa force_isa ScopedForceIsa
check_contract "SoA layout contract" src/gs/gaussian_soa.hpp \
  GaussianColumns
check_contract "SoA kernel contract" src/gs/kernels.hpp \
  coarse_filter_batch fine_project_batch blend_survivor \
  gather_codebook_column kSimdAbsTolerance

# 8. Observability: the latency histogram, the per-frame metrics line and
#    the span-tracing surface the frame timeline is built from.
check_contract "metrics contract" src/obs/metrics.hpp \
  LogHistogram percentile
check_contract "frame metrics contract" src/obs/publish.hpp \
  write_frame_metrics_jsonl
check_contract "trace contract" src/obs/trace.hpp \
  SGS_TRACE_SPAN SGS_TRACE_INSTANT TraceEvent set_trace_enabled \
  trace_collect write_chrome_trace set_thread_name

# 9. The residency hierarchy: the always-resident coarse floor and the
#    deadline-driven fallback surface built on it.
check_contract "coarse floor contract" src/stream/residency_cache.hpp \
  coarse_floor_budget_bytes coarse_floor_enabled coarse_floor_bytes \
  coarse_fallback
check_contract "coarse tier store contract" src/stream/asset_store.hpp \
  has_coarse_tier with_coarse_floor
check_contract "deadline prefetch contract" src/stream/streaming_loader.hpp \
  fetch_deadline_ns kNoFetchDeadline kUrgentPriority PrefetchPriorityQueue

# 10. The network seam: byte-ranged fetch backends under the store, and
#     the bandwidth-adaptive (ABR) tier-selection loop measured over them.
check_contract "fetch backend contract" src/stream/fetch_backend.hpp \
  FetchBackend LocalFileBackend MemoryBackend SimulatedNetworkBackend \
  NetProfile read_range
check_contract "ABR contract" src/stream/bandwidth_estimator.hpp \
  BandwidthEstimator observe bandwidth_bytes_per_sec
check_contract "ABR policy contract" src/stream/lod_policy.hpp \
  link_bandwidth_bytes_per_sec abr_frame_budget_ns abr_demoted

# 11. The counter schema: each telemetry counter declared once as a table
#     row, and the one rule that turns an acquire or a fetch into counters.
check_contract "counter schema contract" src/core/streaming_trace.hpp \
  kStreamCacheFields kStageFields
check_contract "counting rule contract" src/stream/residency_cache.hpp \
  count_acquire count_fetch

# TODO markers must not ship in the normative docs.
if grep -rn '\bTODO\b' docs/; then
  fail "TODO marker found in docs/"
fi

if [ "$status" -eq 0 ]; then
  echo "docs sync OK"
else
  echo "docs sync FAILED"
fi
exit "$status"
