"""Shared devtools report renderers: text, JSON and SARIF."""

import json

import pytest

from repro.devtools.analyze.engine import Finding, LintReport
from repro.devtools.reporting import (
    OUTPUT_FORMATS,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
    renderer_for,
)


def _report():
    report = LintReport(files_checked=3, errors=[])
    report.findings.append(
        Finding(
            path="src/repro/core/x.py",
            line=10,
            col=4,
            rule="determinism",
            message="wall clock in core",
        )
    )
    report.findings.append(
        Finding(
            path="src/repro/serve/y.py",
            line=2,
            col=0,
            rule="async-blocking",
            message="time.sleep on the serve path",
        )
    )
    return report


class TestRendererLookup:
    def test_every_declared_format_resolves(self):
        for name in OUTPUT_FORMATS:
            assert callable(renderer_for(name))

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown output format"):
            renderer_for("xml")


class TestText:
    def test_clean_summary_carries_the_tool_name(self):
        clean = LintReport(files_checked=1, errors=[])
        assert render_text(clean, "repro analyze") == (
            "repro analyze: 1 file clean"
        )

    def test_findings_render_one_line_each_plus_summary(self):
        out = render_text(_report(), "repro analyze").splitlines()
        assert out[0] == (
            "src/repro/core/x.py:10:4: determinism: wall clock in core"
        )
        assert out[-1].startswith("repro analyze: 2 finding(s), 0 error(s)")


class TestJson:
    def test_payload_is_to_dict_plus_tool(self):
        report = _report()
        payload = json.loads(render_json(report, "repro analyze"))
        expected = report.to_dict()
        expected["tool"] = "repro analyze"
        assert payload == expected
        assert payload["tool"] == "repro analyze"
        assert payload["finding_count"] == 2


class TestSarif:
    def test_log_shape(self):
        log = json.loads(render_sarif(_report(), "repro analyze"))
        assert log["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro analyze"
        assert run["tool"]["driver"]["rules"] == [
            {"id": "async-blocking"},
            {"id": "determinism"},
        ]
        assert len(run["results"]) == 2

    def test_result_location_is_one_based(self):
        log = json.loads(render_sarif(_report(), "repro analyze"))
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "determinism"
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/x.py"
        assert location["region"]["startLine"] == 10
        assert location["region"]["startColumn"] == 5

    def test_errors_become_tool_notifications(self):
        report = LintReport(
            files_checked=1, errors=["broken.py: syntax error"]
        )
        log = json.loads(render_sarif(report, "repro analyze"))
        (invocation,) = log["runs"][0]["invocations"]
        assert invocation["executionSuccessful"] is False
        assert invocation["toolExecutionNotifications"] == [
            {
                "level": "error",
                "message": {"text": "broken.py: syntax error"},
            }
        ]

    def test_clean_run_is_successful_with_no_results(self):
        clean = LintReport(files_checked=1, errors=[])
        log = json.loads(render_sarif(clean, "repro analyze"))
        run = log["runs"][0]
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True


class TestCliSarif:
    def test_repro_lint_emits_valid_sarif(self, tmp_path, capsys):
        """A per-file rule's finding reaches SARIF with its location."""
        from repro.cli import main as repro_main

        (tmp_path / "core").mkdir()
        bad = tmp_path / "core" / "bad.py"
        bad.write_text("import time\nstart = time.time()\n")
        assert repro_main(["analyze", str(tmp_path), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "determinism"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_repro_analyze_emits_valid_sarif(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        (tmp_path / "leaky.py").write_text(
            "class Leaky:\n"
            "    def __init__(self):\n"
            "        self._hits = 0\n"
            "    def export_state(self):\n"
            "        return {}\n"
            "    def restore_state(self, state):\n"
            "        pass\n"
        )
        assert (
            repro_main(["analyze", str(tmp_path), "--format", "sarif"]) == 1
        )
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro analyze"
        rules = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
        assert rules == ["checkpoint-completeness"]
