"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the timed workload and reports every ``end_to_end``
metric of ``BENCHMARK.json``; ``--trace 1`` runs the traced replay and
reports every ``per_layer`` metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run whose outputs are wrong prints ``"correct": false`` and exits 1; a
run that cannot produce a valid result prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("batch-stream", "paper-sweep")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        _fail(f"cannot read {path}: {error}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    spec = _load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    from perfbench.common import CHILD_LOG, BenchError
    from perfbench.report import Report

    if os.path.exists(CHILD_LOG):
        os.remove(CHILD_LOG)

    report = Report(f"{args.workload} seed={args.seed} trace={args.trace}", units)
    try:
        if args.trace:
            from perfbench import traced

            if args.workload == "paper-sweep":
                traced.traced_sweep(args.seed, report)
            else:
                traced.traced_serve(args.workload, args.seed, report)
        elif args.workload == "paper-sweep":
            from perfbench.paper_sweep import paper_sweep

            paper_sweep(args.seed, args.seconds, report)
        else:
            from perfbench import serve_workloads

            serve_workloads.batch_stream(args.seed, args.seconds, report)
        correct = report.emit()
    except BenchError as error:
        _fail(str(error))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
