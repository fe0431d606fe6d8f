// bench_ledger: one seeded workload per process, measured in four steps —
// untimed set-up, a timed pass with tracing and stage timing off (every
// end-to-end metric), output checks, and, with --trace 1, a shorter traced
// replay with timing probes on every layer seam (every per-layer metric).
// README.md in this directory holds the metric catalog and the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace ledger;

constexpr const char* kUsage =
    R"(bench_ledger - seeded frame-path benchmark with per-layer attribution

  --workload <name>  resident | ooc_l0 | lod_link | serve_fleet (required)
  --seed <n>         seed of every generated input (default 1)
  --seconds <s>      timed-pass length in seconds (default 15)
  --trace <0|1>      0: timed pass, end-to-end metrics; 1: traced replay,
                     per-layer metrics (default 0)
  --out <file>       result file (default BENCH_ledger_<workload>.json);
                     --trace 1 also writes <file minus .json>.trace.json
  --help             this text

The last line of standard output is the result as one JSON object. Exit
status: 0 when every output check passes, 1 when one fails or the run
errors, 2 on a usage error (reported before any set-up).
)";

// Set-ups per timed run, whose median setup_s reports: at least three, and
// more while they add up to under two seconds, so a cheap set-up is not
// timed from a few milliseconds of file I/O.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kMinSetupSeconds = 2.0;
// Frames whose pixels are checked against the resident reference.
constexpr int kVerifyFrames = 300;
// Traced-replay length (the untraced comparison pass matches it).
constexpr int kReplayFrames = 500;
// Per-session frames of the fleet's checks and replay.
constexpr int kFleetFrames = 32;
// Trace ring per thread: room for a whole replay, so nothing drops (the
// ring grows only as far as it is filled).
constexpr std::size_t kTraceCapacity = 1 << 20;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Options {
  Workload workload = Workload::kResident;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out;
};

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

// Returns 0 to run, or the exit status to stop with.
int parse_options(int argc, char** argv, Options& o) {
  sgs::CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("%s", kUsage);
    return -1;
  }
  auto usage_error = [](const std::string& msg) {
    std::fprintf(stderr, "bench_ledger: %s (see --help)\n", msg.c_str());
    return 2;
  };
  if (!args.positional().empty()) {
    return usage_error("unexpected argument '" + args.positional()[0] + "'");
  }
  const std::string name = args.get("workload", "");
  const auto w = workload_from_name(name);
  if (!w) return usage_error("unknown workload '" + name + "'");
  o.workload = *w;
  if (!parse_u64(args.get("seed", "1"), o.seed)) {
    return usage_error("--seed takes a whole number");
  }
  std::uint64_t seconds = 0;
  if (!parse_u64(args.get("seconds", "15"), seconds) || seconds == 0) {
    return usage_error("--seconds takes a whole number >= 1");
  }
  o.seconds = static_cast<double>(seconds);
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1") return usage_error("--trace takes 0 or 1");
  o.trace = trace == "1";
  o.out = args.get("out", std::string("BENCH_ledger_") + name + ".json");
  if (!args.unused().empty()) {
    return usage_error("unknown flag --" + args.unused()[0]);
  }
  return 0;
}

std::string strip_json(const std::string& path) {
  const std::string ext = ".json";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size());
  }
  return path;
}

// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> frame_ms(const PassRecord& p) {
  std::vector<double> ms;
  ms.reserve(p.frame_ns.size());
  for (std::uint64_t ns : p.frame_ns) ms.push_back(static_cast<double>(ns) * 1e-6);
  return ms;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const PassRecord& p,
                               const std::vector<double>& setups) {
  const std::vector<double> ms = frame_ms(p);
  const auto n = static_cast<std::uint64_t>(p.frames);
  return {
      {"setup_s", "s", quantile(setups, 0.5), setups.size()},
      {"frame_ms_p50", "ms", quantile(ms, 0.50), n},
      {"frame_ms_p99", "ms", quantile(ms, 0.99), n},
      {"throughput_fps", "1/s", ratio(static_cast<double>(p.frames), p.timed_s),
       n},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
      {"psnr_mean_db", "dB",
       ratio(p.psnr_sum_db, static_cast<double>(p.psnr_samples)),
       p.psnr_samples},
      {"fairness_index", "ratio", p.fairness, n},
  };
}

std::vector<Metric> per_layer(const Fixture& fx, const PassRecord& untraced,
                              const PassRecord& r) {
  const auto F = static_cast<double>(r.frames);
  const auto n = static_cast<std::uint64_t>(r.frames);
  auto per_frame = [F](double v) { return ratio(v, F); };
  auto ms_per_frame = [F](std::uint64_t ns) {
    return ratio(static_cast<double>(ns) * 1e-6, F);
  };
  auto mb_per_frame = [F](double bytes) { return ratio(bytes * 1e-6, F); };
  auto pct = [F](std::size_t k) { return ratio(100.0 * static_cast<double>(k), F); };
  auto us = [](const sgs::obs::LogHistogram& h, double q) {
    return static_cast<double>(h.percentile(q)) * 1e-3;
  };
  const SetupTimes& t = fx.times;
  const sgs::core::StreamCacheStats& c = r.cache;
  const double untraced_p50 = quantile(frame_ms(untraced), 0.5);
  const double traced_p50 = quantile(frame_ms(r), 0.5);
  return {
      {"scene.generate_s", "s", t.generate_s, 1},
      {"core.prepare_s", "s", t.prepare_s, 1},
      {"stream.store_write_s", "s", t.store_write_s, 1},
      {"stream.cache_open_s", "s", t.cache_open_s, 1},
      {"core.plan_ms", "ms/frame", ms_per_frame(r.stages.plan), n},
      {"core.vsu_ms", "ms/frame", ms_per_frame(r.stages.vsu), n},
      {"core.filter_ms", "ms/frame", ms_per_frame(r.stages.filter), n},
      {"core.sort_ms", "ms/frame", ms_per_frame(r.stages.sort), n},
      {"core.blend_ms", "ms/frame", ms_per_frame(r.stages.blend), n},
      {"core.plan_reuse_pct", "%", pct(r.plans_reused), n},
      {"core.fine_pass_pct", "%",
       ratio(100.0 * static_cast<double>(r.fine_pass),
             static_cast<double>(r.residents)),
       r.residents},
      {"core.dram_mb_per_frame", "MB/frame",
       mb_per_frame(static_cast<double>(r.dram_bytes)), n},
      {"stream.acquire_us_p50", "us", us(r.acquire_ns, 0.50),
       r.acquire_ns.count()},
      {"stream.acquire_us_p99", "us", us(r.acquire_ns, 0.99),
       r.acquire_ns.count()},
      {"stream.acquire_calls_per_frame", "count/frame",
       per_frame(static_cast<double>(r.acquire_ns.count())), n},
      {"stream.fetch_ms", "ms/frame", ms_per_frame(r.stages.fetch), n},
      {"stream.decode_ms", "ms/frame", ms_per_frame(r.stages.decode), n},
      {"stream.read_range_us_p50", "us", us(r.read_range_ns, 0.50),
       r.read_range_ns.count()},
      {"stream.read_range_us_p99", "us", us(r.read_range_ns, 0.99),
       r.read_range_ns.count()},
      {"stream.read_mb_per_frame", "MB/frame",
       mb_per_frame(static_cast<double>(r.read_bytes)), n},
      {"stream.hit_pct", "%", 100.0 * c.hit_rate(), c.accesses()},
      {"stream.misses_per_frame", "count/frame",
       per_frame(static_cast<double>(c.misses)), n},
      {"stream.prefetches_per_frame", "count/frame",
       per_frame(static_cast<double>(c.prefetches)), n},
      {"stream.evictions_per_frame", "count/frame",
       per_frame(static_cast<double>(c.evictions)), n},
      {"stream.fetched_mb_per_frame", "MB/frame",
       mb_per_frame(static_cast<double>(c.bytes_fetched)), n},
      {"stream.prefetch_expired", "count",
       static_cast<double>(r.prefetch_expired), n},
      {"stream.stall_frame_pct", "%", pct(r.stall_frames), n},
      {"stream.fallback_frame_pct", "%", pct(r.fallback_frames), n},
      {"stream.error_frame_pct", "%", pct(r.error_frames), n},
      {"stream.begin_frame_us_p50", "us", us(r.begin_frame_ns, 0.50),
       r.begin_frame_ns.count()},
      {"stream.upgrades_per_frame", "count/frame",
       per_frame(static_cast<double>(c.upgrades)), n},
      {"stream.coarse_fallbacks_per_frame", "count/frame",
       per_frame(static_cast<double>(c.coarse_fallbacks)), n},
      {"stream.abr_demotions_per_frame", "count/frame",
       per_frame(static_cast<double>(c.abr_demotions)), n},
      {"stream.link_ms_per_frame", "ms/frame", ms_per_frame(r.link_ns), n},
      {"serve.queue_wait_ms_p50", "ms", r.queue_wait_p50_ms, n},
      {"serve.queue_wait_ms_p99", "ms", r.queue_wait_p99_ms, n},
      {"serve.merged_prefetch_requests", "count",
       static_cast<double>(r.merged_prefetch), n},
      {"pool.submit_wait_ms_per_frame", "ms/frame", ms_per_frame(r.pool_wait_ns),
       n},
      {"sim.host_ms_per_frame", "ms/frame", ms_per_frame(r.sim_host_ns), n},
      {"sim.accel_fps", "1/s", ratio(F, r.sim_seconds), n},
      {"sim.accel_dram_mb_per_frame", "MB/frame", mb_per_frame(r.sim_dram_bytes),
       n},
      {"sim.accel_energy_mj_per_frame", "mJ/frame", per_frame(r.sim_energy_mj),
       n},
      {"obs.trace_overhead_pct", "%",
       100.0 * (ratio(traced_p50, untraced_p50) - 1.0), n},
      {"obs.trace_dropped", "count",
       static_cast<double>(sgs::obs::trace_dropped_total()), 1},
  };
}

Check hashes_match(const std::string& name,
                   const std::vector<std::uint64_t>& got,
                   const std::vector<std::uint64_t>& want) {
  std::size_t first_diff = 0;
  while (first_diff < got.size() && first_diff < want.size() &&
         got[first_diff] == want[first_diff]) {
    ++first_diff;
  }
  const bool ok = !got.empty() && got.size() == want.size() &&
                  first_diff == got.size();
  std::string detail = std::to_string(got.size()) + " frames";
  if (!ok) detail += ", first mismatch at frame " + std::to_string(first_diff);
  return {name, ok, detail};
}

Check positive(const std::string& name, double value) {
  std::ostringstream os;
  os << value;
  return {name, value > 0.0, os.str()};
}

// Checks every pass makes; the zero-denominator guards fail a check that
// would otherwise pass because nothing was tested.
std::vector<Check> check_pass(const Fixture& fx, const PassRecord& p) {
  std::vector<Check> checks;
  checks.push_back(positive("frames", static_cast<double>(p.frames)));
  checks.push_back(positive("psnr_samples", static_cast<double>(p.psnr_samples)));
  const auto frames = static_cast<int>(p.hashes[0].size());
  switch (fx.workload) {
    case Workload::kResident:
      checks.push_back(hashes_match("matches_resident_rerender", p.hashes[0],
                                    reference_hashes(fx, 0, frames)));
      break;
    case Workload::kOocL0:
      checks.push_back(hashes_match("matches_resident", p.hashes[0],
                                    reference_hashes(fx, 0, frames)));
      checks.push_back(positive("evictions", static_cast<double>(p.cache.evictions)));
      checks.push_back(positive("acquires", static_cast<double>(p.cache.accesses())));
      break;
    case Workload::kLodLink:
      checks.push_back(positive("coarse_fallbacks",
                                static_cast<double>(p.cache.coarse_fallbacks)));
      checks.push_back(positive("acquires", static_cast<double>(p.cache.accesses())));
      break;
    case Workload::kServeFleet:
      for (int s = 0; s < 2; ++s) {
        const auto& got = p.hashes[static_cast<std::size_t>(s)];
        checks.push_back(hashes_match(
            "session" + std::to_string(s) + "_matches_solo", got,
            reference_hashes(fx, s, static_cast<int>(got.size()))));
      }
      checks.push_back(positive("acquires", static_cast<double>(p.cache.accesses())));
      break;
  }
  return checks;
}

Check equal(const std::string& name, double a, double b) {
  std::ostringstream os;
  os << std::setprecision(17) << a << " vs " << b;
  return {name, a == b, os.str()};
}

// Whether a workload's pixels are a function of its seed alone. lod_link's
// are not: render workers touch the cache's LRU in scheduling order, so
// under eviction pressure the victims — and, with a zero deadline, the
// floor fallbacks they cause — differ from run to run, synchronous
// prefetch or not. The other three stream at L0 or not at all.
bool replays_exactly(Workload w) { return w != Workload::kLodLink; }

// The traced replay must reproduce the untraced pass: the same pixels and
// DRAM bytes where the output is deterministic, the same quality within
// kLodReplaySlackDb where it is not. Only the resident trace, with no cache
// traffic in it, also replays exactly through the accelerator model.
constexpr double kLodReplaySlackDb = 0.5;

std::vector<Check> check_replay(const Fixture& fx, const PassRecord& plain,
                                const PassRecord& traced) {
  std::vector<Check> checks;
  checks.push_back(equal("replay_plans_built",
                         static_cast<double>(traced.prefix_plans_built),
                         static_cast<double>(plain.prefix_plans_built)));
  if (replays_exactly(fx.workload)) {
    for (std::size_t s = 0; s < plain.hashes.size(); ++s) {
      checks.push_back(hashes_match("replay_pixels_session" + std::to_string(s),
                                    traced.hashes[s], plain.hashes[s]));
    }
    checks.push_back(equal("replay_dram_bytes",
                           static_cast<double>(traced.prefix_dram_bytes),
                           static_cast<double>(plain.prefix_dram_bytes)));
  } else {
    const double a = ratio(traced.psnr_sum_db, static_cast<double>(traced.psnr_samples));
    const double b = ratio(plain.psnr_sum_db, static_cast<double>(plain.psnr_samples));
    std::ostringstream os;
    os << a << " vs " << b << " dB";
    checks.push_back({"replay_psnr", std::abs(a - b) <= kLodReplaySlackDb, os.str()});
  }
  if (fx.workload == Workload::kResident) {
    checks.push_back(
        equal("replay_sim_seconds", traced.sim_seconds, plain.sim_seconds));
  }
  return checks;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

const char* compiler_name() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_options(argc, argv, opt); rc != 0) {
    return rc < 0 ? 0 : rc;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_ledger: built without NDEBUG; timings from an "
               "assert-enabled build are not comparable. Configure with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  return 1;
#endif

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  sgs::set_parallelism(static_cast<int>(std::min(4u, nproc)));
  sgs::obs::set_trace_capacity(kTraceCapacity);
  const bool fleet = opt.workload == Workload::kServeFleet;
  const std::string stem = strip_json(opt.out);

  try {
    std::vector<double> setups;
    double setup_total = 0.0;
    std::unique_ptr<Fixture> fx;
    // A traced run sets up once, with its phases on the timeline.
    while (setups.empty() ||
           (!opt.trace && (setups.size() < kMinSetups ||
                           (setup_total < kMinSetupSeconds &&
                            setups.size() < kMaxSetups)))) {
      fx.reset();
      sgs::obs::set_trace_enabled(opt.trace);
      fx = set_up(opt.workload, opt.seed, stem);
      sgs::obs::set_trace_enabled(false);
      setups.push_back(fx->times.total());
      setup_total += setups.back();
    }

    PassOptions po;
    po.hash_frames = fleet ? kFleetFrames : kVerifyFrames;
    if (opt.trace) {
      po.frames = fleet ? kFleetFrames : kReplayFrames;
      po.hash_frames = po.frames;
      po.simulate = true;
    } else {
      po.seconds = opt.seconds;
    }
    const PassRecord plain = run_pass(*fx, po);
    std::vector<Check> checks = check_pass(*fx, plain);

    std::vector<Metric> metrics;
    const PassRecord* measured = &plain;
    PassRecord traced;
    if (opt.trace) {
      po.traced = true;
      sgs::obs::set_trace_enabled(true);
      traced = run_pass(*fx, po);
      sgs::obs::set_trace_enabled(false);
      measured = &traced;
      const std::string trace_path = stem + ".trace.json";
      if (!sgs::obs::write_chrome_trace(trace_path)) {
        checks.push_back({"trace_written", false, trace_path});
      }
      for (Check& c : check_replay(*fx, plain, traced)) {
        checks.push_back(std::move(c));
      }
      metrics = per_layer(*fx, plain, traced);
    } else {
      metrics = end_to_end(plain, setups);
    }

    bool correct = true;
    for (const Check& c : checks) {
      if (!c.passed) {
        correct = false;
        std::fprintf(stderr, "bench_ledger: check %s FAILED (%s)\n",
                     c.name.c_str(), c.detail.c_str());
      }
    }

    std::ostringstream metrics_json;
    std::ostringstream metrics_full;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      const char* sep = i == 0 ? "" : ", ";
      metrics_json << sep << json_string(m.name) << ": {\"value\": "
                   << json_number(m.value) << ", \"unit\": "
                   << json_string(m.unit) << "}";
      metrics_full << (i == 0 ? "\n    " : ",\n    ") << json_string(m.name)
                   << ": {\"value\": " << json_number(m.value)
                   << ", \"unit\": " << json_string(m.unit)
                   << ", \"samples\": " << m.samples << "}";
    }

    std::ofstream out(opt.out);
    out << "{\n  \"workload\": " << json_string(workload_name(opt.workload))
        << ",\n  \"seed\": " << opt.seed << ",\n  \"trace\": " << opt.trace
        << ",\n  \"seconds\": " << json_number(opt.seconds)
        << ",\n  \"env\": {\"nproc\": " << nproc
        << ", \"pool_width\": " << sgs::parallelism()
        << ", \"isa_detected\": "
        << json_string(sgs::simd::isa_name(sgs::simd::detect_isa()))
        << ", \"isa_active\": "
        << json_string(sgs::simd::isa_name(sgs::simd::active_isa()))
        << ", \"compiler\": " << json_string(compiler_name())
        << ", \"ndebug\": true}"
        << ",\n  \"frames\": {\"measured\": " << measured->frames
        << ", \"checked_per_session\": " << plain.hashes[0].size()
        << ", \"setup_repeats\": " << setups.size() << "}"
        << ",\n  \"path_hash\": \"" << std::hex
        << path_hash(opt.workload, opt.seed,
                     static_cast<int>(plain.hashes[0].size()))
        << std::dec << "\""
        << ",\n  \"counts\": {\"prefix_plans_built\": "
        << plain.prefix_plans_built;
    // Only counts a seed fixes: --summarize requires them equal across runs.
    if (replays_exactly(opt.workload)) {
      out << ", \"prefix_dram_bytes\": " << plain.prefix_dram_bytes;
    }
    if (opt.trace && opt.workload == Workload::kResident) {
      out << ", \"sim_seconds\": " << json_number(plain.sim_seconds);
    }
    out << "},\n  \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": "
          << json_string(checks[i].name)
          << ", \"passed\": " << (checks[i].passed ? "true" : "false")
          << ", \"detail\": " << json_string(checks[i].detail) << "}";
    }
    out << "\n  ],\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"attempted\": " << measured->frames
        << ",\n  \"failed\": " << measured->error_frames
        << ",\n  \"metrics\": {" << metrics_full.str() << "\n  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "bench_ledger: cannot write %s\n", opt.out.c_str());
      return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", measured->frames,
                measured->error_frames, metrics_json.str().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: %s\n", e.what());
    return 1;
  }
}
