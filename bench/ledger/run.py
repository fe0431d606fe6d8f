#!/usr/bin/env python3
"""Runs one perf-ledger workload, or summarizes result files.

  python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/ledger/run.py --summarize A.json ... [--vs B.json ...]

A run builds libsgs and bench_ledger from this checkout's sources (CMake,
Release) into $CARGO_TARGET_DIR/ledger (default .bench_build/ledger), runs
the workload, checks that the metrics it printed are exactly the ones
BENCHMARK.json lists for the mode, and prints its result line as the last
line of standard output. Build output goes to standard error.

--summarize prints, per workload and metric, the median, quartiles, and
spreads of the given result files, with a verdict against the metric's
BENCHMARK.json bound; with --vs it also compares the medians of the two
sets. It exits 1 when a spread other than setup_s's exceeds its bound, a
median regresses past it, an output check failed, or a deterministic count
differs between runs of one seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_catalog():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources under {ROOT}; the benchmark builds "
             "libsgs from them")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ledger"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bench_ledger"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def check_line(result, catalog, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = {m["name"]: m["unit"]
            for m in catalog["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def run(args):
    catalog = load_catalog()
    if args.workload not in [w["name"] for w in catalog["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)
    if args.seconds < 1 or args.trace not in (0, 1) or args.seed < 0:
        fail("--seconds >= 1, --trace 0|1 and --seed >= 0 are required", 2)
    build_dir = build()
    out = args.out or str(build_dir / "runs" /
                          f"{args.workload}.trace{args.trace}.json")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "bench_ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_ledger ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"bench_ledger exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"unparsable result line: {lines[-1][:200]}")
    problem = check_line(result, catalog, args.trace)
    if problem:
        fail(problem)
    print(lines[-1])
    sys.exit(proc.returncode)


def spread(values, med):
    """Interquartile distance and full range, as shares of the median."""
    if len(values) < 2 or med == 0:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def load_results(files):
    groups = defaultdict(list)
    for path in files:
        if path.endswith(".trace.json"):
            continue  # the Chrome trace written beside a traced result
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError) as e:
            fail(f"cannot read {path}: {e}")
        groups[(r["workload"], r["trace"])].append(r)
    return groups


def summarize(files, vs):
    catalog = load_catalog()
    e2e = {m["name"]: m for m in catalog["end_to_end"]}
    groups = load_results(files)
    others = load_results(vs) if vs else {}
    bad = False
    for (workload, trace), runs in sorted(groups.items()):
        seeds = sorted({r["seed"] for r in runs})
        print(f"\n{workload} (trace {trace}): {len(runs)} runs, seeds {seeds}")
        header = f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} " \
                 f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}  verdict"
        if vs:
            header += f"  {'vs median':>12} {'worse by':>9}  vs verdict"
        print(header)
        other = others.get((workload, trace), [])
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            iqr, rng = spread(values, med)
            bound = e2e.get(name, {}).get("bound")
            if bound is None:
                verdict = "-"
            elif iqr < bound / 3:
                verdict = "steady"
            elif iqr <= bound:
                verdict = "within"
            elif name == "setup_s":
                verdict = "wide"  # only its median is held to the bound
            else:
                verdict, bad = "NOISY", True
            row = f"  {name:34} {med:12.6g} {q[0]:12.6g} {q[2]:12.6g} " \
                  f"{iqr:8.4f} {rng:8.4f} {bound if bound is not None else '-':>6}  {verdict:7}"
            if other:
                omed = statistics.median(r["metrics"][name]["value"] for r in other)
                sign = -1.0 if e2e.get(name, {}).get("better") == "higher" else 1.0
                worse = sign * (omed - med) / abs(med) if med else 0.0
                v = "-" if bound is None else ("ok" if worse <= bound else "REGRESSED")
                bad = bad or v == "REGRESSED"
                row += f"  {omed:12.6g} {worse:9.4f}  {v}"
            print(row)
        by_seed = defaultdict(list)
        for r in runs + other:
            by_seed[r["seed"]].append((r["path_hash"], r["counts"]))
        for seed, counts in sorted(by_seed.items()):
            same = all(c == counts[0] for c in counts)
            bad = bad or not same
            print(f"  seed {seed}: deterministic counts "
                  f"{'identical' if same else 'DIFFER'} across {len(counts)} runs")
        failed = [r["seed"] for r in runs + other if not r["correct"]]
        if failed:
            bad = True
            print(f"  output checks FAILED on seeds {failed}")
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", help="result file (default: under the build dir)")
    p.add_argument("--summarize", nargs="+", metavar="RESULT")
    p.add_argument("--vs", nargs="+", metavar="RESULT",
                   help="with --summarize: a second set to compare medians against")
    args = p.parse_args()
    if args.summarize:
        summarize(args.summarize, args.vs)
    elif args.workload:
        run(args)
    else:
        p.error("give --workload or --summarize")


if __name__ == "__main__":
    main()
