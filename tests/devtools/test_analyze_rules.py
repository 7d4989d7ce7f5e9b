"""Every rule of the one engine, table-driven over fixtures and snippets.

Each fixture under ``fixtures/`` is one case: the engine run on it must
yield exactly the expected ``(rule, line)`` set, so a regression in any
rule turns its ``*_bad`` row red and a false positive turns its
``*_good`` row red.  The snippet table pins directory scoping and the
literal edge cases of the per-file rules.
"""

from pathlib import Path

import pytest

from repro.devtools.analyze import AnalyzeEngine, Project

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_CASES = {
    "predictor_bad.py": {("predictor-contract", 6), ("predictor-contract", 9)},
    "predictor_good.py": set(),
    "core/determinism_bad.py": {("determinism", line) for line in range(14, 19)},
    "core/determinism_good.py": set(),
    "phase_range_bad.py": {
        ("phase-id-range", 5),
        ("phase-id-range", 6),
        ("phase-id-range", 8),
    },
    "phase_range_good.py": set(),
    "core/float_equality_bad.py": {
        ("no-float-equality", 8),
        ("no-float-equality", 9),
    },
    "core/float_equality_good.py": set(),
    "mutable_defaults_bad.py": {
        ("mutable-default-args", 4),
        ("mutable-default-args", 9),
    },
    "mutable_defaults_good.py": set(),
    "power/units_bad.py": {("units-docstring", 7), ("units-docstring", 12)},
    "power/units_good.py": set(),
    "suppressed.py": set(),
    "analyze/badproj": {
        ("layering", 3),
        ("checkpoint-completeness", 10),
        ("determinism", 8),
        ("determinism-taint", 18),
        ("async-blocking", 15),
        ("protocol-conformance", 10),
        ("protocol-conformance", 21),
        ("protocol-conformance", 29),
        ("protocol-conformance", 35),
    },
    "analyze/goodproj": set(),
}

CLOCK_CALL = "import time\nstart = time.time()\n"
FLOAT_EQ = "flag = x == 0.0\n"
UNITS = 'def power_watts(x):\n    """No unit here."""\n    return x\n'

#: id -> (dotted module name, source, expected rules).  The dotted name
#: sets the module's path, which is what package-scoped rules look at.
SNIPPET_CASES = {
    "determinism-skips-analysis": ("src.repro.analysis.mod", CLOCK_CALL, set()),
    "determinism-in-power": ("src.repro.power.mod", CLOCK_CALL, {"determinism"}),
    # Trace events never carry wall-clock stamps.
    "determinism-in-obs": ("src.repro.obs.tracer", CLOCK_CALL, {"determinism"}),
    # The serve tier may not call a clock, but may pass one by reference.
    "determinism-serve-call": (
        "src.repro.serve.session",
        "import time\nnow = time.monotonic()\n",
        {"determinism"},
    ),
    "determinism-serve-clock-reference": (
        "src.repro.serve.frontends",
        "import time\nDEFAULT_CLOCK = time.monotonic\n",
        set(),
    ),
    "float-equality-skips-cli": ("src.repro.cli", FLOAT_EQ, set()),
    "float-equality-in-core": ("src.repro.core.x", FLOAT_EQ, {"no-float-equality"}),
    "units-skips-core": ("src.repro.core.x", UNITS, set()),
    "units-in-cpu": ("src.repro.cpu.x", UNITS, {"units-docstring"}),
    "predictor-contract-skips-plain-class": ("m", "class Helper:\n    pass\n", set()),
    "phase-id-attribute-target": ("m", "obj.predicted_phase = 9\n", {"phase-id-range"}),
    "mutable-default-lambda": ("m", "f = lambda xs=[]: xs\n", {"mutable-default-args"}),
    **{
        f"phase-id-literal-{literal}": (
            "m",
            f"phase = {literal}\n",
            set() if 1 <= literal <= 6 else {"phase-id-range"},
        )
        for literal in (1, 2, 3, 4, 5, 6, 0, 7, -1, 100)
    },
}


def _rules(sources):
    findings = AnalyzeEngine().analyze_project(Project.from_sources(sources))
    return {finding.rule for finding in findings}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_CASES))
def test_fixture_findings(fixture):
    report = AnalyzeEngine().run([str(FIXTURES / fixture)])
    assert report.errors == []
    assert {(f.rule, f.line) for f in report.findings} == FIXTURE_CASES[fixture]
    assert report.exit_code == (1 if FIXTURE_CASES[fixture] else 0)


@pytest.mark.parametrize("case", list(SNIPPET_CASES))
def test_snippet_rules(case):
    name, source, expected = SNIPPET_CASES[case]
    assert _rules({name: source}) == expected


def test_messages_name_the_violation():
    report = AnalyzeEngine().run(
        [str(FIXTURES / "core/determinism_bad.py"), str(FIXTURES / "predictor_bad.py")]
    )
    messages = " ".join(f.message for f in report.findings)
    for fragment in (
        "time.time",
        "datetime.now",
        "random.random",
        "without a seed",
        "np.random.normal",
        "observe",
        "predict",
        "DEFAULT_PHASE",
    ):
        assert fragment in messages


def test_suppressed_fixture_flags_without_its_comments():
    source = (FIXTURES / "suppressed.py").read_text()
    stripped = "\n".join(line.split("#")[0].rstrip() for line in source.splitlines())
    assert _rules({"m": stripped}) == {"phase-id-range", "mutable-default-args"}
