"""Static analysis for the reproduction (``repro analyze``).

One engine parses every file once into a project — a module index with
dotted names, an import graph that distinguishes module-scope from
deferred imports, and a best-effort call graph — and runs eleven rules
over it.  Six check one file at a time and encode the paper's
invariants:

* ``phase-id-range`` — phase-id literals lie in 1..6 (Table 1);
* ``predictor-contract`` — ``PhasePredictor`` subclasses implement the
  observe/predict cycle;
* ``determinism`` — no wall-clock or unseeded-RNG calls in replayable
  packages;
* ``no-float-equality`` — no exact float ``==``/``!=`` in core/ and
  power/;
* ``mutable-default-args`` — no shared mutable defaults;
* ``units-docstring`` — unit-named power/cpu functions state the unit.

Five are cross-module:

* ``checkpoint-completeness`` — every mutable field round-trips
  through the class's export/restore checkpoint pair;
* ``async-blocking`` — no blocking primitive is reachable from the
  asyncio serve path, interprocedurally;
* ``determinism-taint`` — wall-clock/random/env values never flow into
  persisted outputs, digests, cache keys, or wire payloads;
* ``layering`` — the import DAG (substrate below kernel below
  offline/online layers) plus module-scope cycle detection;
* ``protocol-conformance`` — wire ops dispatched exactly once, error
  codes declared and produced, every op exercised by loadgen.

Suppressions require a justification
(``# repro-analyze: disable=<rule> -- <why>``).  See
``docs/static_analysis.md`` for the architecture and rule catalogue.
"""

from repro.devtools.analyze.callgraph import CallGraph, CallSite, FunctionInfo
from repro.devtools.analyze.cli import main, run_analyze
from repro.devtools.analyze.engine import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    Analysis,
    AnalyzeEngine,
    Finding,
    LintReport,
    Suppression,
    parse_analyze_suppressions,
    register_analysis,
    registered_analyses,
)
from repro.devtools.analyze.analyses import default_analyses
from repro.devtools.analyze.project import (
    ImportEdge,
    ParsedModule,
    Project,
    ProjectModule,
    load_project,
)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "Analysis",
    "AnalyzeEngine",
    "CallGraph",
    "CallSite",
    "Finding",
    "FunctionInfo",
    "ImportEdge",
    "LintReport",
    "ParsedModule",
    "Project",
    "ProjectModule",
    "Suppression",
    "default_analyses",
    "load_project",
    "main",
    "parse_analyze_suppressions",
    "register_analysis",
    "registered_analyses",
    "run_analyze",
]
