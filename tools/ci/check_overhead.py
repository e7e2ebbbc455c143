#!/usr/bin/env python3
"""Gate the cost of compiled-in-but-disabled observability.

Compares google-benchmark JSON files from bench_policy_overhead:

  baseline    built with every obs layer compiled out
              (-DSDB_TRACING=OFF -DSDB_JOURNAL=OFF)
  candidates  one or more builds with obs layers compiled in but dormant
              (e.g. journal-only, then tracing + journal)

Each build brings one JSON file per round, and every build must bring the
same number of rounds: the k-th file of each build comes from the same
round. Run the builds in interleaved rounds, rotating their order each
round, so a slow stretch of a shared runner lands on every build of that
round.

The statistic is paired by round. For each benchmark, each build's min
real_time over the repetitions of one round is taken (min of repetitions is
the standard noise filter), and the candidate/baseline ratio of those mins
is formed round by round. The benchmark's slowdown is the median of its
per-round ratios, so one uniformly slow round moves every build of that
round together and cancels in the ratio, and one odd round cannot decide
the median. The candidate's overhead is the geometric mean of the
benchmarks' slowdowns. The gate fails when any candidate's overhead exceeds
the threshold (default 5%); per-benchmark numbers are printed either way so
a regression is attributable from the CI log alone.

Usage:
  check_overhead.py --baseline NOOBS_R1.json [NOOBS_R2.json ...]
      --candidate CAND_R1.json [CAND_R2.json ...]
      [--candidate CAND2_R1.json ...] [--threshold 0.05]
  check_overhead.py --self-test     # the statistic on synthetic rounds
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile


def round_min_times(path):
    """Return {benchmark name: min real_time over the file's repetitions}."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        # With --benchmark_repetitions, aggregate rows (mean/median/stddev)
        # carry run_type "aggregate"; keep only the raw iterations.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench["name"]
        t = float(bench["real_time"])
        if name not in times or t < times[name]:
            times[name] = t
    if not times:
        sys.exit(f"error: no iteration rows in {path}")
    return times


def paired_slowdowns(base_paths, cand_paths):
    """Return {benchmark: median over rounds of the candidate/baseline ratio}."""
    if len(base_paths) != len(cand_paths):
        sys.exit(f"error: {len(base_paths)} baseline rounds but {len(cand_paths)} "
                 f"candidate rounds ({' '.join(cand_paths)}); pair them round by round")
    ratios = {}
    for base_path, cand_path in zip(base_paths, cand_paths):
        base = round_min_times(base_path)
        cand = round_min_times(cand_path)
        missing = sorted(set(base) ^ set(cand))
        if missing:
            print(f"warning: benchmarks in only one of {base_path} and {cand_path}: "
                  f"{', '.join(missing)}")
        for name in set(base) & set(cand):
            ratios.setdefault(name, []).append(cand[name] / base[name])
    # A benchmark counts only if it ran in every round.
    rounds = len(base_paths)
    return {name: statistics.median(r) for name, r in ratios.items() if len(r) == rounds}


def gate_candidate(base_paths, cand_paths, threshold):
    """Print the per-benchmark comparison; return the geomean overhead."""
    slowdowns = paired_slowdowns(base_paths, cand_paths)
    label = " ".join(cand_paths)
    if not slowdowns:
        sys.exit(f"error: baseline and {label} share no benchmark present in every round")

    print(f"\n{label} vs baseline ({len(base_paths)} paired rounds):")
    print(f"{'benchmark':<40} {'median ratio':>12}")
    log_sum = 0.0
    for name in sorted(slowdowns):
        log_sum += math.log(slowdowns[name])
        print(f"{name:<40} {slowdowns[name]:>12.3f}")
    overhead = math.exp(log_sum / len(slowdowns)) - 1.0
    print(f"geomean slowdown: {overhead * 100:+.2f}% "
          f"(threshold {threshold * 100:.1f}%)")
    return overhead


def self_test():
    """Checks the statistic on synthetic rounds; returns a process exit code."""
    names = ["BM_A/2", "BM_B/8", "BM_C/64"]
    base_ns = {"BM_A/2": 100.0, "BM_B/8": 250.0, "BM_C/64": 4000.0}

    def write_round(directory, tag, scale_by_round):
        paths = []
        for r, scale in enumerate(scale_by_round):
            rows = []
            for name in names:
                for rep, jitter in enumerate((1.00, 1.02, 1.01)):
                    rows.append({"name": name, "run_type": "iteration", "repetition_index": rep,
                                 "real_time": base_ns[name] * scale * jitter})
                rows.append({"name": name + "_mean", "run_type": "aggregate",
                             "real_time": 1.0})
            path = os.path.join(directory, f"{tag}_r{r}.json")
            with open(path, "w") as f:
                json.dump({"benchmarks": rows}, f)
            paths.append(path)
        return paths

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = write_round(tmp, "base", [1.0, 1.0, 1.0])
        cases = [
            # (name, candidate round scales, baseline round scales, expect pass)
            ("identical builds", [1.0, 1.0, 1.0], None, True),
            ("one uniformly slow candidate round", [1.0, 1.6, 1.0], None, True),
            ("one uniformly slow round on every build", [1.0, 1.6, 1.0], [1.0, 1.6, 1.0], True),
            # A min over every round would read this as a 25% slowdown.
            ("one fast baseline round", [1.0, 1.0, 1.0], [0.8, 1.0, 1.0], True),
            ("consistent 10% slowdown", [1.1, 1.1, 1.1], None, False),
            ("consistent 10% slowdown, one slow baseline round", [1.1, 1.1, 1.1],
             [1.0, 1.5, 1.0], False),
            ("consistent 4% slowdown", [1.04, 1.04, 1.04], None, True),
        ]
        for k, (name, cand_scales, base_scales, expect_pass) in enumerate(cases):
            base_paths = base if base_scales is None else write_round(tmp, f"b{k}", base_scales)
            cand_paths = write_round(tmp, f"c{k}", cand_scales)
            overhead = gate_candidate(base_paths, cand_paths, 0.05)
            passed = overhead <= 0.05
            if passed != expect_pass:
                failures.append(f"{name}: overhead {overhead * 100:+.2f}% "
                                f"{'passed' if passed else 'failed'} the 5% gate")
    if failures:
        print("\nself-test FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("\nself-test passed")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", nargs="+", required=True,
                        help="JSON from the all-obs-off build, one per round")
    parser.add_argument("--candidate", nargs="+", action="append", required=True,
                        help="JSON from one build with obs compiled in, one per round in "
                             "the baseline's round order; repeat the flag for each build")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max allowed geomean slowdown (default 0.05 = 5%%)")
    args = parser.parse_args()

    failed = []
    for cand_paths in args.candidate:
        if gate_candidate(args.baseline, cand_paths, args.threshold) > args.threshold:
            failed.append(" ".join(cand_paths))
    if failed:
        sys.exit("FAIL: disabled-obs overhead exceeds the threshold for: "
                 + ", ".join(failed))
    print("\nOK: every candidate is within the overhead budget")


if __name__ == "__main__":
    main()
