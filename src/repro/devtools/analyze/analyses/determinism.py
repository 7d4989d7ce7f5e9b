"""Rule R2: simulation packages must stay bit-for-bit replayable.

The reproduction's figures (Fig. 4, 5, 11) are regression-tested against
exact values, which only works because every trace is derived from a
seeded generator.  Wall-clock reads (``time.time()``,
``datetime.now()``) and unseeded global RNG calls (``random.random()``,
``np.random.normal()``) inside ``core/``, ``power/`` or ``workloads/``
would silently break that replayability.  Seeded constructions —
``np.random.default_rng(seed)``, ``random.Random(seed)`` — are allowed.

The trace collectors in ``obs/`` are held to the same bar: tracing is
required to be zero-perturbation and deterministic, so a trace event
must never carry a wall-clock stamp — only simulated time and the
monotonic interval index.

``serve/`` joins the list because its correctness contract is bit-for-bit
equivalence with the offline evaluator: the serving layer never *calls*
a clock itself — frontends pass ``time.monotonic`` in by reference,
which this rule deliberately permits (it flags calls, not references).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.devtools.analyze.callgraph import dotted_parts
from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Packages whose code must stay replayable.
PACKAGES: Tuple[str, ...] = ("core", "power", "workloads", "obs", "serve", "bench")

#: ``time`` module functions that read the wall clock.
_CLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
)

#: ``datetime``/``date`` class methods that read the wall clock.
_DATETIME_METHODS = ("now", "utcnow", "today")

#: RNG constructors that are deterministic *when given a seed argument*.
_SEEDABLE_CONSTRUCTORS = (
    "Random",
    "RandomState",
    "default_rng",
    "SeedSequence",
)


def _has_seed_argument(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg == "seed" for kw in call.keywords)


def _violation(parts: Tuple[str, ...], call: ast.Call) -> Optional[str]:
    dotted = ".".join(parts)
    head, last = parts[0], parts[-1]
    if dotted in _CLOCK_CALLS or (
        last in _DATETIME_METHODS and ("datetime" in parts or "date" in parts)
    ):
        return f"{dotted}() reads the wall clock; simulation time only"
    is_stdlib_random = head == "random" and len(parts) > 1
    is_np_random = head in ("np", "numpy") and len(parts) > 2 and parts[1] == "random"
    if not (is_stdlib_random or is_np_random):
        return None
    if last in _SEEDABLE_CONSTRUCTORS:
        if _has_seed_argument(call):
            return None
        return f"{dotted}() without a seed is not replayable; pass an explicit seed"
    return (
        f"{dotted}() uses unseeded global RNG state; use a seeded "
        "np.random.default_rng(seed) / random.Random(seed) instead"
    )


@register_analysis
class DeterminismAnalysis(Analysis):
    """Forbid wall-clock and unseeded-RNG calls in simulation packages."""

    name = "determinism"
    description = (
        "no time.time()/datetime.now()/unseeded random calls in "
        "core/, power/, workloads/, obs/, serve/ or bench/ (simulation, "
        "its traces, the serving layer and the benchmark registry must "
        "be replayable; benchmark timing lives in benchmarks/)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            if not module.parsed.in_package(*PACKAGES):
                continue
            for node in ast.walk(module.parsed.tree):
                if not isinstance(node, ast.Call):
                    continue
                parts = dotted_parts(node.func)
                message = None if parts is None else _violation(parts, node)
                if message is not None:
                    yield self.finding(
                        module.path, node.lineno, node.col_offset, message
                    )
