#!/usr/bin/env python3
"""Compare two sets of perfbench results layer by layer.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py or a directory of them
(.bench_build/perfbench/results/). Runs are grouped by workload; a metric is
compared only where both sides have it.

* Counted metrics (exact in the result file) are deterministic for a given
  seed, so they are compared seed by seed and any difference is reported
  exactly.
* Measured metrics (times, memory, ratios of times) are compared by median.
  A difference no larger than the run-to-run spread, the larger of the two
  sides' interquartile ranges relative to their medians, is marked noise.
  With fewer than two runs on a side the spread is unknown and the verdict
  says so.

Exit code 0; 2 when an input cannot be read.
"""

import json
import os
import statistics
import sys


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append(rec)
    if not runs:
        raise ValueError(f"{path}: no result files")
    return runs


def rel_spread(values):
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def compare_measured(a_vals, b_vals, better):
    ma, mb = statistics.median(a_vals), statistics.median(b_vals)
    delta = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
    spreads = [rel_spread(a_vals), rel_spread(b_vals)]
    if None in spreads:
        verdict = "spread unknown"
    elif abs(delta) <= max(spreads):
        verdict = "noise"
    else:
        verdict = "better" if (delta < 0) == (better == "lower") else "worse"
    return ma, mb, f"{100 * delta:+.1f}%", verdict


def compare_exact(a_runs, b_runs, name):
    a_by_seed = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in a_runs}
    b_by_seed = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in b_runs}
    seeds = sorted(set(a_by_seed) & set(b_by_seed))
    if not seeds:
        return (statistics.median(a_by_seed.values()), statistics.median(b_by_seed.values()),
                "", "no common seed")
    diffs = [(s, b_by_seed[s] - a_by_seed[s]) for s in seeds if b_by_seed[s] != a_by_seed[s]]
    s0 = diffs[0][0] if diffs else seeds[0]
    if not diffs:
        return a_by_seed[s0], b_by_seed[s0], "0", f"same ({len(seeds)} seeds)"
    return (a_by_seed[s0], b_by_seed[s0], f"{diffs[0][1]:+.6g}",
            f"changed on {len(diffs)}/{len(seeds)} seeds")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, new = load(sys.argv[1]), load(sys.argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        a_runs, b_runs = base[workload], new[workload]
        print(f"== {workload}: {len(a_runs)} base run(s), {len(b_runs)} new run(s)")
        print(f"{'layer':9s} {'metric':34s} {'base':>14s} {'new':>14s} {'delta':>10s}  verdict")
        names = [n for n in a_runs[0]["metrics"]
                 if all(n in r["metrics"] for r in a_runs + b_runs)]
        for name in names:
            spec = a_runs[0]["metrics"][name]
            if spec["exact"]:
                row = compare_exact(a_runs, b_runs, name)
            else:
                row = compare_measured([r["metrics"][name]["value"] for r in a_runs],
                                       [r["metrics"][name]["value"] for r in b_runs],
                                       spec["better"])
            layer = name.split(".")[0] if "." in name else "e2e"
            print(f"{layer:9s} {name:34s} {row[0]:>14.6g} {row[1]:>14.6g} {row[2]:>10s}  {row[3]}")
        a_sha = {r["provenance"]["seed"]: r["final_sequences_sha256"] for r in a_runs}
        b_sha = {r["provenance"]["seed"]: r["final_sequences_sha256"] for r in b_runs}
        seeds = sorted(set(a_sha) & set(b_sha))
        same = sum(1 for s in seeds if a_sha[s] == b_sha[s])
        print(f"final sequences identical on {same} of {len(seeds)} common seeds\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
