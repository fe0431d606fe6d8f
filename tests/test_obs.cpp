// Tests for the observability subsystem (src/obs/): the per-frame metrics
// line, the log-scale latency histogram, span tracing through the real
// pipeline, the Chrome Trace exporter + analyzer, and — the hard contract —
// that enabling tracing changes no rendered pixel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "core/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/publish.hpp"
#include "obs/trace.hpp"
#include "obs/trace_stats.hpp"
#include "scene/generator.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"

namespace sgs::obs {
namespace {

// Every tracing test restores the global tracer to its default state so
// test order cannot leak enabled tracing (or a tiny ring) into the suite.
struct TraceGuard {
  TraceGuard() {
    set_trace_enabled(false);
    trace_reset();
  }
  ~TraceGuard() {
    set_trace_enabled(false);
    trace_reset();
    set_trace_capacity(std::size_t{1} << 14);
  }
};

gs::GaussianModel test_model(std::uint64_t seed, std::size_t count) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = count;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = seed;
  return scene::generate_scene(cfg);
}

core::StreamingScene test_scene(std::uint64_t seed, std::size_t count) {
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  return core::StreamingScene::prepare(test_model(seed, count), cfg);
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& p) : path(p) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<gs::Camera> orbit(int frames, int size) {
  std::vector<gs::Camera> cams;
  for (int f = 0; f < frames; ++f) {
    const float t = 0.6f * static_cast<float>(f) / static_cast<float>(frames);
    const float a = 6.2831853f * t;
    cams.push_back(gs::Camera::look_at(
        {6.0f * std::sin(a), 1.0f, -6.0f * std::cos(a)}, {0, 0, 0}, {0, 1, 0},
        0.9f, size, size));
  }
  return cams;
}

// ------------------------------------------------------------ LogHistogram --

TEST(LogHistogram, SmallValuesAreExact) {
  // Unit buckets below 2*kSubBuckets: the reported bound IS the value.
  for (std::uint64_t v = 0; v < 2 * LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_upper_bound(LogHistogram::bucket_index(v)),
              v);
  }
}

TEST(LogHistogram, BoundNeverUnderstatesAndStaysWithinPrecision) {
  // Sweep a wide value range: every bucket upper bound must cover its value
  // and overstate it by at most 2^-kPrecisionBits = 12.5%.
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 + 7) {
    const std::uint64_t ub =
        LogHistogram::bucket_upper_bound(LogHistogram::bucket_index(v));
    EXPECT_GE(ub, v);
    EXPECT_LE(ub - v, v / LogHistogram::kSubBuckets);
  }
  // The extremes of the u64 range stay in range.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  const int b = LogHistogram::bucket_index(top);
  EXPECT_LT(b, LogHistogram::kBucketCount);
  EXPECT_EQ(LogHistogram::bucket_upper_bound(b), top);
}

TEST(LogHistogram, PercentilesNearestRankWithinPrecision) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Nearest-rank truth for U{1..1000}: pXX = XX0. Reported values may
  // overstate by <= 12.5%, never understate.
  for (const double q : {0.50, 0.95, 0.99}) {
    const auto truth = static_cast<std::uint64_t>(q * 1000.0);
    const std::uint64_t got = h.percentile(q);
    EXPECT_GE(got, truth) << "q=" << q;
    EXPECT_LE(got, truth + truth / LogHistogram::kSubBuckets) << "q=" << q;
  }
  // Extremes clamp to observed min/max exactly.
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_EQ(h.percentile(1.0), 1000u);
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST(LogHistogram, MergeEqualsConcatenation) {
  LogHistogram evens, odds, all;
  for (std::uint64_t v = 0; v <= 10000; ++v) {
    ((v % 2 == 0) ? evens : odds).record(v * 37 + 11);
    all.record(v * 37 + 11);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_EQ(evens.sum(), all.sum());
  EXPECT_EQ(evens.min(), all.min());
  EXPECT_EQ(evens.max(), all.max());
  for (int b = 0; b < LogHistogram::kBucketCount; ++b) {
    ASSERT_EQ(evens.bucket(b), all.bucket(b)) << "bucket " << b;
  }
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(evens.percentile(q), all.percentile(q));
  }
}

TEST(LogHistogram, EmptyHistogramIsZero) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

// ------------------------------------------------------------------ tracing --

TEST(Trace, SpanNestingOrderedWithinEachPoolThread) {
  TraceGuard guard;
  set_trace_enabled(true);
  parallel_for(0, 64, [&](std::size_t i) {
    SGS_TRACE_SPAN("test", "outer", "i", i);
    SGS_TRACE_SPAN("test", "inner", "i", i);
  });
  set_trace_enabled(false);

  std::size_t outers = 0, inners = 0;
  for (const ThreadTrace& t : trace_collect()) {
    // A ring holds events in close order: each inner lands immediately
    // before its outer, and must nest inside it on the shared clock.
    for (std::size_t k = 0; k < t.events.size(); ++k) {
      const TraceEvent& e = t.events[k];
      if (std::string(e.name) == "inner") {
        ++inners;
        ASSERT_LT(k + 1, t.events.size());
        const TraceEvent& outer = t.events[k + 1];
        ASSERT_STREQ(outer.name, "outer");
        EXPECT_EQ(outer.arg0, e.arg0);  // same iteration
        EXPECT_LE(outer.ts_ns, e.ts_ns);
        EXPECT_GE(outer.ts_ns + outer.dur_ns, e.ts_ns + e.dur_ns);
      } else if (std::string(e.name) == "outer") {
        ++outers;
      }
    }
  }
  EXPECT_EQ(outers, 64u);
  EXPECT_EQ(inners, 64u);
}

TEST(Trace, RingBoundOverwritesOldestAndCountsDrops) {
  TraceGuard guard;
  set_trace_capacity(16);
  set_trace_enabled(true);
  set_thread_name("ring-test");
  for (std::uint64_t i = 0; i < 100; ++i) {
    trace_instant("test", "tick", "i", i);
  }
  set_trace_enabled(false);

  bool found = false;
  for (const ThreadTrace& t : trace_collect()) {
    if (t.name != "ring-test") continue;
    found = true;
    ASSERT_EQ(t.events.size(), 16u);
    EXPECT_EQ(t.dropped, 84u);
    // Oldest-first after rotation: the survivors are exactly the last 16
    // emissions, in order.
    for (std::size_t k = 0; k < t.events.size(); ++k) {
      EXPECT_EQ(t.events[k].arg0, 84 + k);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(trace_dropped_total(), 84u);
}

TEST(Trace, CollectWhileEmittingIsSafe) {
  // TSan coverage for the ring buffers: writers on pool threads while the
  // main thread collects concurrently.
  TraceGuard guard;
  set_trace_enabled(true);
  std::thread collector([] {
    for (int i = 0; i < 50; ++i) {
      const auto threads = trace_collect();
      (void)threads;
    }
  });
  parallel_for(0, 5000, [&](std::size_t i) {
    SGS_TRACE_SPAN("test", "work", "i", i);
    trace_instant("test", "mark", "i", i);
  });
  collector.join();
  set_trace_enabled(false);
}

TEST(Trace, DisabledSpanEmitsNothing) {
  TraceGuard guard;
  trace_reset();
  {
    SGS_TRACE_SPAN("test", "ghost");
    SGS_TRACE_INSTANT("test", "ghost_i");
  }
  for (const ThreadTrace& t : trace_collect()) {
    for (const TraceEvent& e : t.events) {
      EXPECT_STRNE(e.name, "ghost");
      EXPECT_STRNE(e.name, "ghost_i");
    }
  }
}

// ------------------------------------------- tracing-on goldens + exporter --

TEST(Trace, OutOfCoreRenderBitIdenticalWithTracingOn) {
  const auto scene = test_scene(41, 2000);
  TempFile file("/tmp/sgs_test_obs_golden.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  const auto cameras = orbit(3, 96);
  core::SequenceOptions seq;
  seq.render.collect_stage_timing = true;
  const auto resident = core::render_sequence(scene, cameras, seq);

  stream::ResidencyCacheConfig ccfg;
  ccfg.budget_bytes = store.decoded_bytes_total() * 40 / 100;
  stream::ResidencyCache cache(store, ccfg);
  stream::StreamingLoader loader(cache);
  const auto scene_ooc = store.make_scene();

  TraceGuard guard;
  set_trace_enabled(true);
  const auto ooc = core::render_sequence(scene_ooc, cameras, seq, &loader);
  loader.wait_idle();
  set_trace_enabled(false);

  ASSERT_EQ(ooc.frames.size(), resident.frames.size());
  core::StageTimingsNs stalls;
  for (std::size_t f = 0; f < ooc.frames.size(); ++f) {
    // The invariant the whole subsystem is gated on: tracing observes the
    // pipeline, it never perturbs a pixel.
    EXPECT_EQ(ooc.frames[f].image.pixels(), resident.frames[f].image.pixels())
        << "frame " << f;
    stalls.accumulate(ooc.frames[f].trace.total_stage_ns());
  }
  // A cold cache demand-missed: the synchronous stall time must now be
  // attributed to the new fetch/decode stage timings.
  EXPECT_GT(stalls.fetch + stalls.decode, 0u);

  // The exported trace is valid and contains the expected span names.
  std::ostringstream json;
  write_chrome_trace(json, trace_collect());
  std::string error;
  const auto summary = analyze_trace_text(json.str(), &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_GT(summary->spans, 0u);
  for (const char* name : {"frame", "vsu", "filter", "sort", "blend"}) {
    EXPECT_TRUE(summary->by_name.count(name)) << name;
  }
  EXPECT_TRUE(summary->by_name.count("fetch"));
}

TEST(Trace, ServedSessionsBitIdenticalWithTracingOn) {
  const auto scene = test_scene(43, 1500);
  TempFile file("/tmp/sgs_test_obs_serve.sgsc");
  ASSERT_TRUE(stream::AssetStore::write(file.path, scene));
  stream::AssetStore store(file.path);

  std::vector<std::vector<gs::Camera>> paths = {orbit(2, 96), orbit(2, 96)};
  serve::SceneServerConfig cfg;
  cfg.cache.budget_bytes = store.decoded_bytes_total() * 50 / 100;

  TraceGuard guard;
  set_trace_enabled(true);
  const auto result = serve::SceneServer(store, cfg).run(paths);
  set_trace_enabled(false);

  for (std::size_t s = 0; s < paths.size(); ++s) {
    const auto alone = core::render_sequence(scene, paths[s], {});
    for (std::size_t f = 0; f < paths[s].size(); ++f) {
      EXPECT_EQ(result.sessions[s][f].image.pixels(),
                alone.frames[f].image.pixels())
          << "session " << s << " frame " << f;
    }
  }
  // p99 rides the log-scale histogram now; quantiles stay monotone and the
  // merged fleet histogram covers every frame.
  const serve::ServerReport& rep = result.report;
  EXPECT_LE(rep.p50_ms, rep.p95_ms);
  EXPECT_LE(rep.p95_ms, rep.p99_ms);
  EXPECT_EQ(rep.latency.count(), 4u);
  for (const auto& sr : rep.sessions) {
    EXPECT_LE(sr.p50_ms, sr.p95_ms);
    EXPECT_LE(sr.p95_ms, sr.p99_ms);
    EXPECT_EQ(sr.latency.count(), 2u);
  }

  // session_frame spans carry the session arg into the analyzer.
  std::ostringstream json;
  write_chrome_trace(json, trace_collect());
  std::string error;
  const auto summary = analyze_trace_text(json.str(), &error);
  ASSERT_TRUE(summary.has_value()) << error;
  ASSERT_EQ(summary->by_session.size(), 2u);
  EXPECT_EQ(summary->by_session.at(0).count, 2u);
  EXPECT_EQ(summary->by_session.at(1).count, 2u);
}

// --------------------------------------------------- trace_io v6 roundtrip --

TEST(TraceIo, FetchDecodeTimingsSurviveRoundTrip) {
  core::StreamingTrace trace;
  trace.pixel_count = 64;
  core::GroupWork g;
  g.rays = 8;
  g.timing_ns.vsu = 10;
  g.timing_ns.filter = 20;
  g.timing_ns.sort = 30;
  g.timing_ns.blend = 40;
  g.timing_ns.fetch = 5000;
  g.timing_ns.decode = 700;
  trace.groups.push_back(g);

  std::stringstream buf;
  ASSERT_TRUE(core::write_trace(buf, trace));
  const core::StreamingTrace back = core::read_trace(buf);
  ASSERT_EQ(back.groups.size(), 1u);
  EXPECT_EQ(back.groups[0].timing_ns.fetch, 5000u);
  EXPECT_EQ(back.groups[0].timing_ns.decode, 700u);
  EXPECT_EQ(back.total_stage_ns().total(), 5800u);
}

// ----------------------------------------------------------- metric catalog --

// The metric names docs/OBSERVABILITY.md documents: every row of its
// "### Metric catalog" table pairs each backticked prefix of its first
// column ("`cache.`") with each backticked leaf of its second ("`hits`").
std::set<std::string> documented_metric_names() {
  std::ifstream doc(std::string(SGS_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  const auto ticked = [](const std::string& cell) {
    std::vector<std::string> out;
    std::size_t open = cell.find('`');
    while (open != std::string::npos) {
      const std::size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;
      out.push_back(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
    return out;
  };
  std::set<std::string> names;
  bool in_catalog = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("#", 0) == 0) in_catalog = line == "### Metric catalog";
    if (!in_catalog || line.rfind("|", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(cell);
    }
    if (cells.size() < 3) continue;  // cells[0] is before the leading '|'
    for (const std::string& prefix : ticked(cells[1])) {
      for (const std::string& leaf : ticked(cells[2])) {
        names.insert(prefix + leaf);
      }
    }
  }
  return names;
}

// Stage and cache counters with a distinct value per row (row index + base),
// so a value written under the wrong name shows.
core::StageTimingsNs numbered_stages(std::uint64_t base) {
  core::StageTimingsNs st;
  for (const auto& row : core::kStageFields) st.*row.scalar = base++;
  return st;
}
core::StreamCacheStats numbered_cache(std::uint64_t base) {
  core::StreamCacheStats cs;
  for (const auto& row : core::kStreamCacheFields) {
    if (row.scalar != nullptr) cs.*row.scalar = base++;
  }
  return cs;
}

std::string frame_metrics_line(std::uint64_t frame) {
  std::ostringstream out;
  write_frame_metrics_jsonl(out, frame, numbered_stages(100),
                            numbered_cache(200));
  return out.str();
}

// The gauge names of one metrics line, in written order.
std::vector<std::string> gauge_names(const std::string& line) {
  std::vector<std::string> names;
  const std::string key = "\"gauges\":{";
  std::size_t pos = line.find(key);
  if (pos == std::string::npos) return names;
  const std::size_t end = line.find('}', pos);
  pos += key.size();
  while (pos < end) {
    const std::size_t open = line.find('"', pos);
    const std::size_t close = line.find('"', open + 1);
    if (open >= end || close >= end) break;
    names.push_back(line.substr(open + 1, close - open - 1));
    pos = line.find(',', close);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return names;
}

TEST(FrameMetricsLine, OneDeterministicJsonlLinePerFrame) {
  const std::string a = frame_metrics_line(3);
  const std::string b = frame_metrics_line(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("{\"frame\":3,\"counters\":{},\"gauges\":{", 0), 0u);
  EXPECT_NE(a.find("},\"histograms\":{}}"), std::string::npos);
  // One JSON object per line, newline-terminated (the JSONL contract).
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.back(), '\n');
  EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 1);
  // Each row's value lands under its own name.
  EXPECT_NE(a.find("\"stage.plan_ns\":100,"), std::string::npos);
  EXPECT_NE(a.find("\"stage.decode_ns\":106,"), std::string::npos);
  EXPECT_NE(a.find("\"cache.hits\":200,"), std::string::npos);
  EXPECT_NE(a.find("\"cache.abr_demotions\":212,"), std::string::npos);
  EXPECT_NE(a.find("\"pool.parallelism\":" +
                   std::to_string(parallelism()) + ","),
            std::string::npos);
}

TEST(MetricCatalog, EmittedNamesEqualDocumentedSet) {
  const std::vector<std::string> emitted = gauge_names(frame_metrics_line(0));
  const std::set<std::string> emitted_set(emitted.begin(), emitted.end());
  // 7 stage + 13 scalar cache rows + 3 pool + 2 async, none twice.
  EXPECT_EQ(emitted.size(), 25u);
  EXPECT_EQ(emitted_set.size(), emitted.size());
  const std::set<std::string> documented = documented_metric_names();
  for (const std::string& name : emitted_set) {
    EXPECT_TRUE(documented.count(name) != 0)
        << name << " is written but missing from the metric catalog";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(emitted_set.count(name) != 0)
        << name << " is in the metric catalog but never written";
  }
}

// ------------------------------------------------------------- trace_stats --

TEST(TraceStats, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(analyze_trace_text("not json", &error).has_value());
  EXPECT_FALSE(analyze_trace_text("{}", &error).has_value());
  EXPECT_NE(error.find("traceEvents"), std::string::npos);
  // An event without a tid.
  EXPECT_FALSE(analyze_trace_text(
                   R"({"traceEvents":[{"ph":"X","name":"a","ts":1,"dur":2}]})",
                   &error)
                   .has_value());
  // A span without a duration.
  EXPECT_FALSE(
      analyze_trace_text(
          R"({"traceEvents":[{"ph":"X","name":"a","tid":1,"ts":1}]})", &error)
          .has_value());
  // An unsupported phase.
  EXPECT_FALSE(analyze_trace_text(
                   R"({"traceEvents":[{"ph":"B","name":"a","tid":1,"ts":1}]})",
                   &error)
                   .has_value());
  // Trailing garbage after the document.
  EXPECT_FALSE(analyze_trace_text(R"({"traceEvents":[]} extra)", &error)
                   .has_value());
}

TEST(TraceStats, SummarizesSyntheticTrace) {
  const std::string doc = R"({"traceEvents":[
    {"ph":"M","name":"thread_name","tid":1,"args":{"name":"main"}},
    {"ph":"X","name":"fetch","tid":1,"ts":10.0,"dur":3.5,
     "args":{"group":7,"tier":1}},
    {"ph":"X","name":"fetch","tid":2,"ts":11.0,"dur":9.0,
     "args":{"group":8,"tier":0}},
    {"ph":"X","name":"session_frame","tid":1,"ts":0.0,"dur":50.0,
     "args":{"session":3}},
    {"ph":"i","name":"evict","tid":2,"ts":12.0,"args":{"group":7}}
  ]})";
  std::string error;
  const auto summary = analyze_trace_text(doc, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_EQ(summary->events, 4u);
  EXPECT_EQ(summary->spans, 3u);
  EXPECT_EQ(summary->instants, 1u);
  EXPECT_EQ(summary->tids, (std::vector<int>{1, 2}));
  EXPECT_EQ(summary->thread_names.at(1), "main");
  EXPECT_EQ(summary->by_name.at("fetch").count, 2u);
  EXPECT_EQ(summary->by_name.at("fetch").max_dur_ns, 9000u);
  EXPECT_EQ(summary->instants_by_name.at("evict"), 1u);
  EXPECT_EQ(summary->by_session.at(3).count, 1u);
  // Fetch samples sorted by duration descending, args preserved.
  ASSERT_EQ(summary->fetches.size(), 2u);
  EXPECT_EQ(summary->fetches[0].group, 8);
  EXPECT_EQ(summary->fetches[0].dur_ns, 9000u);
  EXPECT_EQ(summary->fetches[1].tier, 1);
}

}  // namespace
}  // namespace sgs::obs
