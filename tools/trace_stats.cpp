// trace_stats: validate and summarize a Chrome Trace Event JSON file
// exported by the obs tracer (vr_walkthrough --trace, bench_streaming
// --trace_out, or any schema-compatible producer).
//
//   trace_stats TRACE.json [--top N] [--require-stages] [--require-cache-events]
//
// Prints per-stage span aggregates, per-session frame aggregates, and the
// top-N longest fetch spans. The --require-* flags turn structural
// expectations into exit-code failures, which is how CI smoke-checks the
// bench_streaming trace artifact:
//   --require-stages        all five pipeline stages (plan/vsu/filter/sort/
//                           blend) present as spans, from >= 3 distinct
//                           threads overall
//   --require-cache-events  >= 1 residency-cache event (fetch span or
//                           evict/retry/degraded instant)
// Exit status: 0 ok, 1 validation or requirement failure, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace_stats.hpp"

namespace {

constexpr const char* kUsage =
    "usage: trace_stats TRACE.json [--top N] [--require-stages]"
    " [--require-cache-events]\n";

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  int top_n = 10;
  bool require_stages = false;
  bool require_cache_events = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--top needs a value\n%s", kUsage);
        return 2;
      }
      top_n = std::atoi(argv[++i]);
      if (top_n < 0) {
        std::fprintf(stderr, "--top must be >= 0\n");
        return 2;
      }
    } else if (arg == "--require-stages") {
      require_stages = true;
    } else if (arg == "--require-cache-events") {
      require_cache_events = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n%s", arg.c_str(), kUsage);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "more than one trace path\n%s", kUsage);
      return 2;
    }
  }
  if (path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  std::string error;
  const auto summary = sgs::obs::analyze_trace_file(path, &error);
  if (!summary.has_value()) {
    std::fprintf(stderr, "trace_stats: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const sgs::obs::TraceSummary& s = *summary;

  std::printf("%s: %zu events (%zu spans, %zu instants) from %zu threads\n",
              path.c_str(), s.events, s.spans, s.instants, s.tids.size());
  for (const int tid : s.tids) {
    const auto it = s.thread_names.find(tid);
    std::printf("  tid %-3d %s\n", tid,
                it == s.thread_names.end() ? "(unnamed)" : it->second.c_str());
  }

  std::printf("\nspans by name:\n");
  std::printf("  %-16s %10s %14s %14s %14s\n", "name", "count", "total_ms",
              "mean_ms", "max_ms");
  for (const auto& [name, agg] : s.by_name) {
    std::printf("  %-16s %10llu %14.3f %14.4f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(agg.count), ms(agg.total_dur_ns),
                agg.count == 0
                    ? 0.0
                    : ms(agg.total_dur_ns) / static_cast<double>(agg.count),
                ms(agg.max_dur_ns));
  }

  if (!s.instants_by_name.empty()) {
    std::printf("\ninstants by name:\n");
    for (const auto& [name, count] : s.instants_by_name) {
      std::printf("  %-16s %10llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (!s.by_session.empty()) {
    std::printf("\nsession frames:\n");
    std::printf("  %-8s %10s %14s %14s\n", "session", "frames", "total_ms",
                "max_ms");
    for (const auto& [session, agg] : s.by_session) {
      std::printf("  %-8lld %10llu %14.3f %14.3f\n",
                  static_cast<long long>(session),
                  static_cast<unsigned long long>(agg.count),
                  ms(agg.total_dur_ns), ms(agg.max_dur_ns));
    }
  }

  if (top_n > 0 && !s.fetches.empty()) {
    std::printf("\ntop %d longest fetch spans:\n", top_n);
    std::printf("  %-8s %-6s %-6s %14s\n", "group", "tier", "tid", "dur_ms");
    int shown = 0;
    for (const sgs::obs::SpanSample& f : s.fetches) {
      if (shown++ == top_n) break;
      std::printf("  %-8lld %-6lld %-6d %14.3f\n",
                  static_cast<long long>(f.group),
                  static_cast<long long>(f.tier), f.tid, ms(f.dur_ns));
    }
  }

  bool ok = true;
  if (require_stages) {
    for (const char* stage : {"plan", "vsu", "filter", "sort", "blend"}) {
      const auto it = s.by_name.find(stage);
      if (it == s.by_name.end() || it->second.count == 0) {
        std::fprintf(stderr, "REQUIRE failed: no '%s' spans in trace\n", stage);
        ok = false;
      }
    }
    if (s.tids.size() < 3) {
      std::fprintf(stderr,
                   "REQUIRE failed: events from %zu threads, need >= 3\n",
                   s.tids.size());
      ok = false;
    }
  }
  if (require_cache_events) {
    std::uint64_t cache_events = 0;
    if (const auto it = s.by_name.find("fetch"); it != s.by_name.end()) {
      cache_events += it->second.count;
    }
    for (const char* inst : {"evict", "retry", "degraded"}) {
      const auto it = s.instants_by_name.find(inst);
      if (it != s.instants_by_name.end()) cache_events += it->second;
    }
    if (cache_events == 0) {
      std::fprintf(stderr,
                   "REQUIRE failed: no residency-cache events "
                   "(fetch spans or evict/retry/degraded instants)\n");
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
