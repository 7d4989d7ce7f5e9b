"""Collects one run's metrics, counts and checks, and prints the result.

The human-readable lines come first; the last line of standard output is
the JSON object ``correct``/``attempted``/``failed``/``metrics``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

from perfbench.common import (
    BenchError,
    OpCounts,
    beyond_p99,
    good_side,
    median,
    percentile,
)


class Report:
    """One run's result, validated against the metric names it must carry.

    Args:
        workload: Workload name, for the printed header.
        units: Metric name → unit, for every metric the run must report
            (the ``end_to_end`` or ``per_layer`` list of
            ``BENCHMARK.json``).
    """

    def __init__(self, workload: str, units: Dict[str, str]) -> None:
        self.workload = workload
        self._units = units
        self._values: Dict[str, float] = {}
        self._shown: List[str] = []
        self._notes: List[str] = []
        self.counts = OpCounts()
        self.correct = True

    # -- recording ------------------------------------------------------------

    def metric(self, name: str, value: float) -> None:
        if name not in self._units:
            raise BenchError(f"metric {name!r} is not declared in BENCHMARK.json")
        if not math.isfinite(value):
            raise BenchError(f"metric {name!r} is not finite: {value}")
        self._values[name] = float(value)

    def shown(self, name: str, value: float, unit: str) -> None:
        """A metric printed by name but not in ``BENCHMARK.json``."""
        self._shown.append(f"{name} {value:.6g} {unit} (printed only, not gated)")

    def setup(self, setups: Sequence[float]) -> None:
        """``setup_s``: the median of this run's set-ups."""
        self.metric("setup_s", median(setups))
        self.note("set-ups (s): " + ", ".join(f"{value:.4f}" for value in setups))

    def latency(self, chunks: Sequence[Sequence[float]], label: str) -> None:
        """``rtt_p50_ms`` and ``rtt_p99_ms``: each chunk's percentile, with
        the counts they rest on, printed by name but not gated.

        p50 is read at the median over the chunks and p99 at the lower
        quartile.  Both are wall-clock times, and time the host takes
        away from the machine's CPUs moves them run to run far more than
        a bound of at most 0.25 allows (see README).
        """
        per_chunk = [percentile(chunk, 0.50) * 1e3 for chunk in chunks]
        self.shown("rtt_p50_ms", median(per_chunk), "ms")
        self.note("rtt_p50_ms per chunk: " + ", ".join(f"{value:.3f}" for value in per_chunk))
        per_chunk = [percentile(chunk, 0.99) * 1e3 for chunk in chunks]
        self.shown("rtt_p99_ms", good_side(per_chunk, higher_is_better=False), "ms")
        self.note("rtt_p99_ms per chunk: " + ", ".join(f"{value:.3f}" for value in per_chunk))
        sizes = [len(chunk) for chunk in chunks]
        self.note(
            f"round trips {label}: n={sum(sizes)} in {len(chunks)} chunks of "
            f"{min(sizes)}..{max(sizes)}, at least {beyond_p99(min(sizes))} beyond "
            "each chunk's p99; reported: p50 at the median, p99 at the lower quartile "
            "over chunks"
        )

    def count(self, label: str, counts: OpCounts) -> None:
        """Add one phase's operation counts to the run's totals."""
        self.counts.add(counts)
        self.note(f"ops [{label}]: {counts.row()}")

    def check(self, passed: bool, text: str) -> None:
        """An output check; a failed one makes the run incorrect."""
        self.correct = self.correct and passed
        self.note(("check ok: " if passed else "CHECK FAILED: ") + text)

    def fail(self, text: str) -> None:
        self.check(False, text)

    def note(self, text: str) -> None:
        self._notes.append(text)

    # -- output ---------------------------------------------------------------

    def emit(self) -> bool:
        """Print every line and the JSON result; returns ``correct``."""
        missing = sorted(set(self._units) - set(self._values))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        attempted = max(1, self.counts.sent)
        if self.counts.bad:
            self.correct = False
        print(f"== {self.workload}")
        for note in self._notes:
            print(f"   {note}")
        print(
            f"   failed_share {self.counts.bad / attempted:.6f} fraction "
            f"({self.counts.bad} of {attempted} ops failed, refused or timed out)"
        )
        for name in self._units:
            print(f"   {name} {self._values[name]:.6g} {self._units[name]}")
        for line in self._shown:
            print(f"   {line}")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": attempted,
                    "failed": self.counts.bad,
                    "metrics": {
                        name: {"value": self._values[name], "unit": self._units[name]}
                        for name in self._units
                    },
                }
            ),
            flush=True,
        )
        return self.correct
