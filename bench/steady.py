"""Steadiness mode: run the benchmark in two sets of runs (each run a new
seed, --seconds from BENCHMARK.json, --trace 0) and report, per metric and
set, the median, the quartiles, the spread (interquartile distance over
the median) and max/min.

    python3 bench/steady.py --workload flow-large --runs 10

An end-to-end metric is flagged when a set's spread exceeds its bound from
BENCHMARK.json, or when the two sets' medians differ, in either direction,
by more than the bound; it gets a warning when a spread exceeds a third of
the bound. The failed share of operations must be equal across the sets.
Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "max_over_min": max(values) / min(values) if min(values) > 0 else float("nan"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for s in range(SETS):
        results = []
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"set {s} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"set {s} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
            results.append(result)
        sets.append(results)

    flags, report = [], {}
    print(f"{'metric':34} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8}")
    for name, bound in bounds.items():
        rows = []
        for s, results in enumerate(sets):
            row = summarize([r["metrics"][name]["value"] for r in results])
            rows.append(row)
            print(f"{name:34} {s:>3} {row['median']:>12.6g} {row['q1']:>12.6g} {row['q3']:>12.6g} "
                  f"{row['spread']:>8.2%} {row['max_over_min']:>8.3f}")
        report[name] = rows
        for s, row in enumerate(rows):
            if row["spread"] > bound:
                flags.append(f"FLAG {name}: set {s} spread {row['spread']:.2%} > bound {bound:.0%}")
            elif row["spread"] > bound / 3:
                flags.append(f"warn {name}: set {s} spread {row['spread']:.2%} > a third of bound {bound:.0%}")
        change = rows[1]["median"] / rows[0]["median"] - 1.0
        if abs(change) > bound:
            flags.append(f"FLAG {name}: set 1 median {change:+.2%} vs set 0, more than bound {bound:.0%}")
    shares = {sum(r["failed"] for r in res) / sum(r["attempted"] for r in res) for res in sets}
    if len(shares) != 1:
        flags.append(f"FLAG failed share differs between sets: {sorted(shares)}")
    if not all(r["correct"] for res in sets for r in res):
        flags.append("FLAG a run reported correct=false")
    for line in flags:
        print(line)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_work", f"steady-{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "sets": sets, "summary": report, "flags": flags}, fh, indent=1)
    return 1 if any(f.startswith("FLAG") for f in flags) else 0


if __name__ == "__main__":
    sys.exit(main())
