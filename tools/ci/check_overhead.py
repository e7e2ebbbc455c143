#!/usr/bin/env python3
"""Gate the cost of compiled-in-but-disabled observability.

Compares google-benchmark JSON files from bench_policy_overhead:

  baseline    built with every obs layer compiled out
              (-DSDB_TRACING=OFF -DSDB_JOURNAL=OFF)
  candidates  one or more builds with obs layers compiled in but dormant
              (e.g. journal-only, then tracing + journal)

Each build may bring several JSON files, one per round. Run the builds in
interleaved rounds, rotating their order each round, so a slow stretch of a
shared runner lands on every build rather than on one. For each benchmark
the min real_time over every repetition of every round of that build is
used (min of repetitions is the standard noise filter for shared CI
runners). The gate fails when any candidate's geometric-mean slowdown over
the baseline exceeds the threshold (default 5%); per-benchmark numbers are
printed either way so a regression is attributable from the CI log alone.

Usage:
  check_overhead.py --baseline NOOBS_R1.json [NOOBS_R2.json ...]
      --candidate CAND_R1.json [CAND_R2.json ...]
      [--candidate CAND2_R1.json ...] [--threshold 0.05]
"""

import argparse
import json
import math
import sys


def min_times(paths):
    """Return {benchmark name: min real_time over every file's repetitions}."""
    times = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        rows = 0
        for bench in doc.get("benchmarks", []):
            # With --benchmark_repetitions, aggregate rows (mean/median/stddev)
            # carry run_type "aggregate"; keep only the raw iterations.
            if bench.get("run_type", "iteration") != "iteration":
                continue
            rows += 1
            name = bench["name"]
            t = float(bench["real_time"])
            if name not in times or t < times[name]:
                times[name] = t
        if rows == 0:
            sys.exit(f"error: no iteration rows in {path}")
    return times


def gate_candidate(base, cand_paths, threshold):
    """Print the per-benchmark comparison; return the geomean overhead."""
    cand = min_times(cand_paths)
    label = " ".join(cand_paths)
    common = sorted(set(base) & set(cand))
    if not common:
        sys.exit(f"error: baseline and {label} share no benchmark names")
    missing = sorted(set(base) ^ set(cand))
    if missing:
        print(f"warning: benchmarks present in only one file: {', '.join(missing)}")

    log_sum = 0.0
    print(f"\n{label} vs baseline:")
    print(f"{'benchmark':<40} {'baseline':>12} {'candidate':>12} {'ratio':>8}")
    for name in common:
        ratio = cand[name] / base[name]
        log_sum += math.log(ratio)
        print(f"{name:<40} {base[name]:>12.1f} {cand[name]:>12.1f} {ratio:>8.3f}")
    geomean = math.exp(log_sum / len(common))
    overhead = geomean - 1.0
    print(f"geomean slowdown: {overhead * 100:+.2f}% "
          f"(threshold {threshold * 100:.1f}%)")
    return overhead


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", nargs="+", required=True,
                        help="JSON from the all-obs-off build, one per round")
    parser.add_argument("--candidate", nargs="+", action="append", required=True,
                        help="JSON from one build with obs compiled in, one per round; "
                             "repeat the flag for each build")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max allowed geomean slowdown (default 0.05 = 5%%)")
    args = parser.parse_args()

    base = min_times(args.baseline)
    failed = []
    for cand_paths in args.candidate:
        if gate_candidate(base, cand_paths, args.threshold) > args.threshold:
            failed.append(" ".join(cand_paths))
    if failed:
        sys.exit("FAIL: disabled-obs overhead exceeds the threshold for: "
                 + ", ".join(failed))
    print("\nOK: every candidate is within the overhead budget")


if __name__ == "__main__":
    main()
