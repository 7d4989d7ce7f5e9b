"""Engine mechanics through a toy per-file analysis.

Suppression parsing, finding collection, exit codes, the registry's
guards and the text/JSON reporters, exercised with a test-only rule
that flags every ``pass`` so the assertions do not depend on any real
rule's heuristics.
"""

import ast
import json

import pytest

from repro.devtools.analyze import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    Analysis,
    AnalyzeEngine,
    Finding,
    LintReport,
    Project,
    default_analyses,
    parse_analyze_suppressions,
    register_analysis,
)
from repro.devtools.reporting import render_json, render_text

#: The rules that check one file at a time.
PER_FILE_RULES = {
    "predictor-contract",
    "determinism",
    "phase-id-range",
    "no-float-equality",
    "mutable-default-args",
    "units-docstring",
}


class PassStatementAnalysis(Analysis):
    """Toy rule used to exercise the engine: flags every ``pass``."""

    name = "no-pass"
    description = "flags pass statements (test-only rule)"

    def check(self, project):
        for module in project.modules():
            for node in ast.walk(module.parsed.tree):
                if isinstance(node, ast.Pass):
                    yield self.finding(
                        module.path, node.lineno, node.col_offset, "pass statement"
                    )


def _findings(source):
    engine = AnalyzeEngine([PassStatementAnalysis()])
    return engine.analyze_project(Project.from_sources({"m": source}))


class TestSuppressionParsing:
    def test_single_rule(self):
        parsed = parse_analyze_suppressions(
            "x = 1  # repro-analyze: disable=phase-id-range -- sentinel\n"
        )
        assert parsed[1].rules == ("phase-id-range",)
        assert parsed[1].matches("phase-id-range")

    def test_comma_separated_rules(self):
        source = (
            "y = 2\n"
            "x = 1  # repro-analyze: disable=a-rule, b-rule -- fixture\n"
        )
        parsed = parse_analyze_suppressions(source)
        assert list(parsed) == [2]
        assert parsed[2].rules == ("a-rule", "b-rule")

    def test_all_sentinel(self):
        parsed = parse_analyze_suppressions(
            "x = 1  # repro-analyze: disable=all -- fixture\n"
        )
        assert parsed[1].matches("phase-id-range")
        assert parsed[1].matches("no-pass")

    def test_plain_comments_ignored(self):
        assert parse_analyze_suppressions("x = 1  # a normal comment\n") == {}
        # The retired per-file dialect is an ordinary comment now.
        retired = "x = 1  # repro-lint: disable=phase-id-range\n"
        assert parse_analyze_suppressions(retired) == {}

    def test_module_reports_suppression(self):
        findings = _findings(
            "pass  # repro-analyze: disable=other-rule -- not this one\n"
            "pass  # repro-analyze: disable=no-pass -- toy\n"
            "pass\n"
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("no-pass", 1),
            ("no-pass", 3),
        ]


class TestEngine:
    def test_findings_from_source(self):
        findings = _findings("def f():\n    pass\n")
        assert [f.rule for f in findings] == ["no-pass"]
        assert (findings[0].line, findings[0].col) == (2, 4)

    def test_suppressed_finding_dropped(self):
        findings = _findings(
            "def f():\n    pass  # repro-analyze: disable=no-pass -- toy\n"
        )
        assert findings == []

    def test_all_suppression_drops_every_rule(self):
        findings = _findings(
            "def f():\n    pass  # repro-analyze: disable=all -- toy\n"
        )
        assert findings == []

    def test_clean_run_exit_code(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = AnalyzeEngine([PassStatementAnalysis()]).run([str(tmp_path)])
        assert report.files_checked == 1
        assert report.exit_code == EXIT_CLEAN

    def test_default_engine_uses_registered_rules(self):
        names = {analysis.name for analysis in AnalyzeEngine().analyses}
        assert PER_FILE_RULES <= names


class TestRegistry:
    def test_six_domain_rules_registered(self):
        names = {analysis.name for analysis in default_analyses()}
        assert names >= PER_FILE_RULES

    def test_duplicate_registration_rejected(self):
        class Duplicate(Analysis):
            name = "determinism"
            description = "imposter"

            def check(self, project):
                return iter(())

        with pytest.raises(ValueError):
            register_analysis(Duplicate)

    def test_nameless_rule_rejected(self):
        class Nameless(Analysis):
            description = "no name"

            def check(self, project):
                return iter(())

        with pytest.raises(ValueError):
            register_analysis(Nameless)


class TestReporters:
    def _report(self):
        finding = Finding(
            path="a.py", line=3, col=4, rule="no-pass", message="pass statement"
        )
        return LintReport(findings=[finding], files_checked=2)

    def test_text_report_format(self):
        text = render_text(self._report())
        assert "a.py:3:4: no-pass: pass statement" in text
        assert "1 finding(s)" in text

    def test_text_report_clean(self):
        text = render_text(LintReport(files_checked=3))
        assert "3 files clean" in text

    def test_json_report_roundtrip(self):
        payload = json.loads(render_json(self._report()))
        assert payload["finding_count"] == 1
        assert payload["files_checked"] == 2
        assert payload["exit_code"] == EXIT_FINDINGS
        assert payload["findings"][0]["rule"] == "no-pass"
