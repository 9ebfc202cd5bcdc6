#!/usr/bin/env python3
"""Noise audit of the benchmark's end-to-end metrics.

    python3 perfbench/audit.py --workloads sweep,serve_read --seeds 1-10

Runs perfbench/run.py once per seed and workload (untraced).  For every
workload it prints each run's raw value of every end-to-end metric, then
each metric's median, first and third quartile (statistics.quantiles,
n=4) and spread, the quartile distance as a share of the median, against
the metric's bound from BENCHMARK.json.  A metric whose spread exceeds its bound is named as
BREAKS BOUND, one above a third of its bound as NOISY.  setup_s has no
spread requirement; only its median shift between run sets is bounded.

The runs are also split into two halves in run order and the second
half's median shift is checked against each bound (the same check two
sets of runs of one commit must pass).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def audit(spec, workload, runs):
    print(f"\n== {workload}: {len(runs)} runs")
    metrics = spec["end_to_end"]
    header = "seed".rjust(6) + "".join(m["name"].rjust(15) for m in metrics)
    print(header)
    for seed, values in runs:
        print(str(seed).rjust(6) + "".join(
            f"{values[m['name']]:15.6g}" for m in metrics))
    broken = []
    print(f"{'metric':16s}{'median':>14s}{'q1':>14s}{'q3':>14s}"
          f"{'spread':>9s}{'bound':>8s}  verdict")
    for m in metrics:
        vals = [v[m["name"]] for _, v in runs]
        med, q1, q3, s = spread(vals)
        if m["name"] == "setup_s":
            verdict = "no spread requirement"
        elif s > m["bound"]:
            verdict = "BREAKS BOUND"
            broken.append(f"{workload}.{m['name']}")
        elif s > m["bound"] / 3:
            verdict = "NOISY (above a third of the bound)"
        else:
            verdict = "ok"
        print(f"{m['name']:16s}{med:14.6g}{q1:14.6g}{q3:14.6g}"
              f"{s:9.3f}{m['bound']:8.2f}  {verdict}")
    if len(runs) >= 4:
        half = len(runs) // 2
        print("second half vs first half (median shift, worse is positive):")
        for m in metrics:
            first = statistics.median(v[m["name"]] for _, v in runs[:half])
            second = statistics.median(v[m["name"]] for _, v in runs[half:])
            w = worse_by(m, first, second)
            flag = "BREAKS BOUND" if w > m["bound"] else "ok"
            if flag != "ok":
                broken.append(f"{workload}.{m['name']} (median shift)")
            print(f"  {m['name']:16s}{w:+9.3f}{m['bound']:8.2f}  {flag}")
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()

    spec = bench.load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    broken = []
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correctness gate failed",
                      file=sys.stderr)
                return 1
            runs.append((seed, {k: v["value"]
                                for k, v in result["metrics"].items()}))
        if not runs:
            print(f"{workload}: no runs", file=sys.stderr)
            return 1
        broken += audit(spec, workload, runs)
    print("\n" + ("metrics breaking their bound: " + ", ".join(broken)
                  if broken else "every spread is within its bound"))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
