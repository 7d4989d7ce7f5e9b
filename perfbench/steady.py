"""Steadiness report: repeat the benchmark and show each metric's spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 [--workloads batch-stream,...]
        [--first-seed 1] [--seconds 10] [--trace 0] [--out spread.json]
        [--compare earlier.json]

Runs ``perfbench/run.py`` once per (workload, seed), in order, and prints
for every metric of every workload its median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  That is the figure
``BENCHMARK.json``'s bounds are checked against: a spread is steady
below a third of the metric's bound, and too wide above the bound.
Every gated metric, ``setup_s`` included, is held to its bound.  With
``--compare`` each median is also checked against an earlier set's: a
median worse by more than the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = "\n".join(lines[-5:])
        raise SystemExit(
            f"{workload} seed {seed}: exit {completed.returncode}\n{tail}"
        )
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def spread_row(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(middle) if middle else float("inf"),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args(argv)
    earlier: Dict[str, Dict[str, Dict[str, float]]] = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {metric["name"]: metric.get("bound") for metric in metrics}
    better = {metric["name"]: metric["better"] for metric in metrics}
    report: Dict[str, Dict[str, Dict[str, float]]] = {}
    worst = 0.0
    for workload in workloads:
        values: Dict[str, List[float]] = {metric["name"]: [] for metric in metrics}
        elapsed: List[float] = []
        for run in range(args.runs):
            seed = args.first_seed + run
            result = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for name in values:
                values[name].append(float(result["metrics"][name]["value"]))
            elapsed.append(result["elapsed_s"])
            print(f"  {workload} seed {seed}: {result['elapsed_s']:.1f} s", file=sys.stderr,
                  flush=True)
        report[workload] = {}
        print(f"== {workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s; each run took "
              f"{min(elapsed):.1f}..{max(elapsed):.1f} s end to end)")
        print(f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, series in values.items():
            row = spread_row(series)
            row["values"] = series  # type: ignore[assignment]
            report[workload][name] = row
            bound = bounds[name]
            verdict = ""
            if bound is not None:
                if row["spread"] <= bound / 3:
                    verdict = "steady"
                elif row["spread"] <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                worst = max(worst, row["spread"] / bound)
            before = earlier.get(workload, {}).get(name)
            if before is not None and bound is not None:
                change = (row["median"] - before["median"]) / abs(before["median"])
                worse = change if better[name] == "lower" else -change
                verdict += f"; median {change:+.1%} vs earlier set" + (
                    " REGRESSED" if worse > bound else ""
                )
            print(
                f"   {name:40s} {row['median']:12.6g} {row['q1']:12.6g} "
                f"{row['q3']:12.6g} {row['spread']:8.4f} "
                f"{'' if bound is None else bound:>6}  {verdict}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    if not args.trace:
        print(f"widest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
