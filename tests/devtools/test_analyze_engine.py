"""Suppression parsing, the analysis registry, and engine aggregation."""

import pytest

from repro.devtools.analyze.engine import (
    EXIT_ERROR,
    EXIT_FINDINGS,
    SUPPRESSION_RULE,
    Analysis,
    AnalyzeEngine,
    Suppression,
    parse_analyze_suppressions,
    register_analysis,
    registered_analyses,
)

LEAKY = (
    "class Leaky:\n"
    "    def __init__(self):\n"
    "        self._hits = 0{comment}\n"
    "    def export_state(self):\n"
    "        return {{}}\n"
    "    def restore_state(self, state):\n"
    "        pass\n"
)


class TestSuppressionParsing:
    def test_single_rule_with_justification(self):
        parsed = parse_analyze_suppressions(
            "x = 1  # repro-analyze: disable=layering -- bootstrap shim\n"
        )
        suppression = parsed[1]
        assert suppression.rules == ("layering",)
        assert suppression.justification == "bootstrap shim"
        assert suppression.valid
        assert suppression.matches("layering")
        assert not suppression.matches("determinism-taint")

    def test_multiple_rules_share_one_justification(self):
        parsed = parse_analyze_suppressions(
            "y = 2  # repro-analyze: disable=layering, determinism-taint"
            " -- generated adapter\n"
        )
        suppression = parsed[1]
        assert suppression.rules == ("layering", "determinism-taint")
        assert suppression.matches("determinism-taint")

    def test_all_matches_every_rule(self):
        parsed = parse_analyze_suppressions(
            "z = 3  # repro-analyze: disable=all -- vendored file\n"
        )
        assert parsed[1].matches("anything")

    def test_missing_justification_is_invalid(self):
        parsed = parse_analyze_suppressions(
            "w = 4  # repro-analyze: disable=layering\n"
        )
        suppression = parsed[1]
        assert suppression.justification is None
        assert not suppression.valid
        assert not suppression.matches("layering")

    def test_line_numbers_are_one_based(self):
        parsed = parse_analyze_suppressions(
            "a = 1\nb = 2  # repro-analyze: disable=x -- why\n"
        )
        assert list(parsed) == [2]

    def test_plain_source_has_no_suppressions(self):
        assert parse_analyze_suppressions("x = 1\n# a comment\n") == {}

    def test_invalid_suppression_never_matches(self):
        suppression = Suppression(line=1, rules=("all",), justification=None)
        assert not suppression.matches("layering")


class TestRegistry:
    def test_default_registry_has_the_four_domain_analyses(self):
        names = set(registered_analyses())
        assert names == {
            "checkpoint-completeness",
            "async-blocking",
            "determinism-taint",
            "layering",
            "protocol-conformance",
            "determinism",
            "mutable-default-args",
            "no-float-equality",
            "phase-id-range",
            "predictor-contract",
            "units-docstring",
        }

    def test_registry_snapshot_is_a_copy(self):
        snapshot = registered_analyses()
        snapshot["bogus"] = Analysis
        assert "bogus" not in registered_analyses()

    def test_register_rejects_missing_name(self):
        class Nameless(Analysis):
            def check(self, project):
                return iter(())

        with pytest.raises(ValueError, match="has no name"):
            register_analysis(Nameless)

    def test_register_rejects_duplicate_name(self):
        class Impostor(Analysis):
            name = "layering"

            def check(self, project):
                return iter(())

        with pytest.raises(ValueError, match="duplicate"):
            register_analysis(Impostor)

    def test_default_engine_runs_analyses_in_name_order(self):
        names = [analysis.name for analysis in AnalyzeEngine().analyses]
        assert names == sorted(names)


class TestEngineSuppressions:
    def _run(self, tmp_path, comment):
        (tmp_path / "leaky.py").write_text(LEAKY.format(comment=comment))
        return AnalyzeEngine().run([str(tmp_path)])

    def test_unsuppressed_violation_is_reported(self, tmp_path):
        report = self._run(tmp_path, "")
        assert [f.rule for f in report.findings] == [
            "checkpoint-completeness"
        ]
        assert report.exit_code == 1

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = self._run(
            tmp_path,
            "  # repro-analyze: disable=checkpoint-completeness"
            " -- counter is telemetry, not state",
        )
        assert report.findings == []
        assert report.exit_code == 0

    def test_suppression_without_justification_is_inert_and_reported(
        self, tmp_path
    ):
        report = self._run(
            tmp_path,
            "  # repro-analyze: disable=checkpoint-completeness",
        )
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["checkpoint-completeness", SUPPRESSION_RULE]
        inert = [f for f in report.findings if f.rule == SUPPRESSION_RULE][0]
        assert "without justification" in inert.message
        assert report.exit_code == 1

    def test_suppression_for_another_rule_does_not_match(self, tmp_path):
        report = self._run(
            tmp_path,
            "  # repro-analyze: disable=layering -- wrong rule entirely",
        )
        assert [f.rule for f in report.findings] == [
            "checkpoint-completeness"
        ]

    def test_all_suppression_silences_any_rule(self, tmp_path):
        report = self._run(
            tmp_path,
            "  # repro-analyze: disable=all -- scratch fixture",
        )
        assert report.findings == []

    def test_unjustified_suppression_of_a_per_file_rule_is_inert(
        self, tmp_path
    ):
        (tmp_path / "m.py").write_text(
            "phase = 0  # repro-analyze: disable=phase-id-range\n"
        )
        report = AnalyzeEngine().run([str(tmp_path)])
        assert sorted((f.rule, f.line) for f in report.findings) == [
            ("phase-id-range", 1),
            (SUPPRESSION_RULE, 1),
        ]


class TestEngineRun:
    def test_syntax_error_is_exit_two(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "ok.py").write_text("phase = 9\n")
        report = AnalyzeEngine().run([str(tmp_path)])
        assert report.files_checked == 1
        assert len(report.errors) == 1
        assert report.exit_code == EXIT_ERROR

    def test_directory_walk_is_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("phase = 9\n")
        (tmp_path / "a.py").write_text("phase = 9\n")
        report = AnalyzeEngine().run([str(tmp_path)])
        assert report.files_checked == 2
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths) and len(paths) == 2
        assert report.exit_code == EXIT_FINDINGS
