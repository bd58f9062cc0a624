#!/usr/bin/env python3
"""uniscan end-to-end benchmark.

    python3 perfbench/run.py --workload generate|unified \\
        --seed N --seconds S --trace 0|1

Run from the root of a uniscan source tree. The first run configures and
builds the library and the measuring program (perfbench/bench.cpp) into
.bench_build/perfbench; later runs reuse that build. That program measures one
workload and checks its outputs; this script turns its raw record into the
metrics listed in BENCHMARK.json.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. The line before it is the SHA-256 of the
workload's final sequences. The full record (provenance, every metric, one
row per circuit) is written to .bench_build/perfbench/results/ for
compare.py.

Exit codes: 0 all checks passed; 1 a correctness check failed (the result
line is still printed); 2 the source tree, build or measuring program could not run (no
result line).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
PROGRAM = os.path.join(BUILD_DIR, "uniscan_perfbench")
WORKLOADS = ("generate", "unified")
# A hung measurement fails the run instead of stalling it.
PROGRAM_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---- build ------------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "corpus/manifest.tsv", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a uniscan source tree")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "uniscan_perfbench",
                  "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed (log: {log_path})")


# ---- provenance -------------------------------------------------------------

def source_sha256():
    """Content hash of everything that decides the measured behaviour."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "corpus"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


# ---- trace ------------------------------------------------------------------

def span_self_times(trace_path):
    """Self seconds per span name, and the dropped-event count, of a trace
    written by obs::Tracer (per-worker lanes, properly nested B/E pairs)."""
    with open(trace_path) as f:
        trace = json.load(f)
    self_us = {}
    stacks = {}
    for ev in trace["traceEvents"]:
        stack = stacks.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            stack.append([ev["name"], ev["ts"], 0])
        else:
            name, start, child_us = stack.pop()
            dur = ev["ts"] - start
            self_us[name] = self_us.get(name, 0) + dur - child_us
            if stack:
                stack[-1][2] += dur
    if any(stacks.values()):
        raise ValueError(f"{trace_path}: unclosed spans")
    return ({k: v / 1e6 for k, v in self_us.items()},
            trace["otherData"]["dropped_events"])


# ---- metrics ----------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(raw):
    circuits = raw["circuits"]
    faults = sum(c["faults"] for c in circuits)
    ok = sum(1 for c in circuits if not c["violations"])
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in raw["passes"]), "s"),
        "setup_s": (statistics.median(s["total_s"] for s in raw["setups"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "fault_coverage_pct": (
            100.0 * ratio(sum(c["final_detected"] for c in circuits), faults), "%"),
        "open_faults": (sum(c["open"] for c in circuits), "count"),
        "test_cycles": (sum(c["final_len"] for c in circuits), "cycles"),
        "pass_rate_pct": (100.0 * ratio(ok, len(circuits)), "%"),
    }


def per_layer_metrics(raw, spans, dropped):
    """Counts come from the first timed pass, times from the traced repeat of
    it, so the layer seconds add up to that pass's busy time
    (trace.unattributed_s is the remainder)."""
    circuits = raw["circuits"]
    first = raw["passes"][0]
    counters = first["counters"]
    traced = raw["traced"]
    timed = traced["circuits"]

    def total(section, key):
        return sum(c.get(section, {}).get(key, 0) for c in circuits)

    def busy(key):
        return sum(c[key] for c in timed)

    def setup(key):
        return statistics.median(s[key] for s in raw["setups"])

    podem_calls = total("atpg", "podem_calls")
    sat_attempts = total("sat", "attempts")
    raw_len = total("restoration", "input_len")
    return {
        "corpus.load_s": (setup("load_s"), "s"),
        "scan.insert_s": (setup("scan_s"), "s"),
        "fault.collapse_s": (setup("collapse_s"), "s"),
        "fault.collapsed": (sum(c["faults"] for c in circuits), "count"),
        "sim.compile_s": (setup("compile_s"), "s"),

        "atpg.wall_s": (busy("atpg_s"), "s"),
        "atpg.podem_span_s": (spans.get("podem", 0.0), "s"),
        "atpg.podem_calls": (podem_calls, "count"),
        "atpg.podem_successes": (total("atpg", "podem_successes"), "count"),
        "atpg.podem_yield": (ratio(total("atpg", "podem_successes"), podem_calls), "ratio"),
        "atpg.scan_load_assisted": (total("atpg", "scan_load_assisted"), "count"),
        "atpg.fallback_attempts": (total("atpg", "fallback_attempts"), "count"),
        "atpg.random_chunks_accepted": (total("atpg", "random_chunks_accepted"), "count"),
        "atpg.detected": (total("atpg", "detected"), "count"),
        "atpg.proved_redundant": (total("atpg", "proved_redundant"), "count"),
        "atpg.funct": (total("atpg", "funct"), "count"),
        "atpg.sequence_len": (total("atpg", "sequence_len"), "vectors"),

        "sat.prove_span_s": (spans.get("sat_prove", 0.0), "s"),
        "sat.attempts": (sat_attempts, "count"),
        "sat.detected": (total("sat", "detected"), "count"),
        "sat.proved_redundant": (total("sat", "proved_redundant"), "count"),
        "sat.aborted": (total("sat", "aborted"), "count"),
        "sat.mismatches": (total("sat", "mismatches"), "count"),
        "sat.yield": (ratio(total("sat", "detected") + total("sat", "proved_redundant"),
                            sat_attempts), "ratio"),
        "sat.replay_miss_ratio": (ratio(total("sat", "mismatches"), sat_attempts), "ratio"),
        "sat.conflicts": (counters["sat_conflicts"], "count"),
        "sat.decisions": (counters["sat_decisions"], "count"),
        "sat.propagations": (counters["sat_propagations"], "count"),

        "sim.session_advance_span_s": (spans.get("session_advance", 0.0), "s"),
        "sim.gate_evals": (counters["gate_evals"], "count"),
        "sim.gate_evals_per_s": (ratio(counters["gate_evals"], busy("task_s")), "1/s"),
        "sim.batches_run": (counters["batches_run"], "count"),
        "sim.batch_skips": (counters["batch_skips"], "count"),
        "sim.cone_prune_hits": (counters["cone_prune_hits"], "count"),
        "sim.repack_events": (counters["repack_events"], "count"),
        "sim.lanes_reclaimed": (counters["lanes_reclaimed"], "count"),

        "compact.restoration_s": (busy("restoration_s"), "s"),
        "compact.omission_s": (busy("omission_s"), "s"),
        "compact.restoration_round_span_s": (spans.get("restoration_round", 0.0), "s"),
        "compact.omission_pass_span_s": (spans.get("omission_pass", 0.0), "s"),
        "compact.omission_trials": (counters["omission_trials"], "count"),
        "compact.resim_restarts": (counters["resim_restarts"], "count"),
        "compact.restoration_restores": (counters["restoration_restores"], "count"),
        "compact.vectors_removed": (raw_len - total("omission", "output_len"), "vectors"),
        "compact.omission_yield": (ratio(total("omission", "vectors_removed"),
                                         counters["omission_trials"]), "ratio"),
        "compact.extra_detected": (
            sum(c["final_detected"] - c["input_detected"] for c in circuits), "count"),

        "baseline.wall_s": (busy("baseline_s"), "s"),
        "baseline.tests": (total("baseline", "tests"), "count"),
        "baseline.cycles": (total("baseline", "cycles"), "cycles"),
        "baseline.detected": (total("baseline", "detected"), "count"),

        "core.busy_s": (busy("task_s"), "s"),
        "core.pool_busy_share": (ratio(busy("task_s"), raw["threads"] * traced["wall_s"]), "ratio"),
        "core.critical_circuit_s": (max(c["task_s"] for c in timed), "s"),
        "core.cancel_polls": (counters["cancel_polls"], "count"),

        "trace.overhead_pct": (100.0 * (traced["wall_s"] / first["wall_s"] - 1.0), "%"),
        "trace.dropped_events": (dropped, "count"),
        # Busy time inside a circuit's flow that no layer call covers.
        "trace.unattributed_s": (spans.get("bench.circuit", 0.0), "s"),
    }


# Metrics where a larger value is the better outcome; every other metric is
# better lower. BENCHMARK.json states the same directions.
HIGHER_IS_BETTER = {
    "fault_coverage_pct", "pass_rate_pct",
    "atpg.podem_successes", "atpg.podem_yield", "atpg.scan_load_assisted",
    "atpg.random_chunks_accepted", "atpg.detected", "atpg.proved_redundant", "atpg.funct",
    "sat.detected", "sat.proved_redundant", "sat.yield",
    "sim.gate_evals_per_s", "sim.batch_skips", "sim.cone_prune_hits", "sim.lanes_reclaimed",
    "compact.resim_restarts", "compact.vectors_removed", "compact.omission_yield",
    "compact.extra_detected", "baseline.detected", "core.pool_busy_share",
}

# Metrics read off a clock or the memory counter; all others are counts that
# repeat exactly for a given seed.
MEASURED = {"peak_rss_mb", "sim.gate_evals_per_s", "core.pool_busy_share", "trace.overhead_pct"}


def describe(name, value, unit):
    return {"value": value, "unit": unit,
            "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            "exact": not (name.endswith("_s") or name in MEASURED)}


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(BUILD_DIR, f"raw-{stem}.json")
    trace_path = os.path.join(BUILD_DIR, f"trace-{stem}.json")
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--corpus", os.path.join(ROOT, "corpus"),
           "--out", raw_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    # The library reads UNISCAN_* overrides (slot width, repacking, fault
    # injection, corpus location); the benchmark runs the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UNISCAN_")}
    for stale in (raw_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{PROGRAM} did not finish within {PROGRAM_TIMEOUT_S} s")
    if proc.returncode not in (0, 1) or not os.path.isfile(raw_path):
        die(f"{PROGRAM} failed with exit code {proc.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)

    e2e = end_to_end_metrics(raw)
    metrics = dict(e2e)
    violations = list(raw["violations"])
    if args.trace:
        spans, dropped = span_self_times(trace_path)
        metrics.update(per_layer_metrics(raw, spans, dropped))
        if dropped:
            violations.append(f"trace dropped {dropped} events")
        shown = {k: v for k, v in metrics.items() if k not in e2e}
    else:
        shown = e2e

    circuits = raw["circuits"]
    correct = not violations
    # A run-level violation (non-determinism, dropped trace events) fails the
    # run even when every circuit passed on its own.
    failed = max(sum(1 for c in circuits if c["violations"]), 0 if correct else 1)
    record = {
        "schema": "uniscan-perfbench/1",
        "workload": args.workload,
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_sha256(),
            "build_type": raw["build"]["build_type"],
            "avx2": raw["build"]["avx2"],
            "avx512": raw["build"]["avx512"],
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "threads": raw["threads"],
            "repeat": len(raw["passes"]),
            "setup_reps": raw["setup_reps"],
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "measure_s": round(time.monotonic() - started, 3),
        },
        "final_sequences_sha256": raw["final_sequences_sha256"],
        "correct": correct,
        "violations": violations,
        "metrics": {k: describe(k, v, u) for k, (v, u) in metrics.items()},
        "circuits": circuits,
    }
    result_path = os.path.join(RESULTS_DIR, f"{stem}.json")
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for v in violations:
        print(f"perfbench: CHECK FAILED: {v}", file=sys.stderr)
    for name, (value, unit) in shown.items():
        print(f"{args.workload:9s} {name:34s} {value:>16.6g} {unit}")
    print(f"{args.workload:9s} final_sequences_sha256 {record['final_sequences_sha256']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(circuits),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
