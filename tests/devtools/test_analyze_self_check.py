"""Self-check: the repository satisfies every whole-program analysis.

The mutation tests at the bottom are the acceptance criterion for the
analyzer itself: corrupting a real invariant in a scratch copy of the
repo's own sources (dropping a field from GPHT's ``export_state``,
adding a ``time.sleep`` to an async serve handler) must produce a
finding with a file and line.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.analyze import AnalyzeEngine, run_analyze
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.engine import EXIT_CLEAN

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
GPHT = SRC / "repro" / "core" / "predictors" / "gpht.py"
FRONTENDS = SRC / "repro" / "serve" / "frontends.py"


class TestRepositoryIsClean:
    def test_engine_clean_on_src(self):
        report = AnalyzeEngine().run([str(SRC)])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.findings == [], f"analyze regressions:\n{formatted}"
        assert report.errors == []
        assert report.files_checked > 100

    def test_module_entry_point_clean_on_src(self, capsys):
        assert analyze_main([str(SRC)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out


class TestCliIntegration:
    def test_repro_analyze_src_exits_zero(self, capsys):
        assert repro_main(["analyze", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_analyze_json_format(self, capsys):
        assert repro_main(["analyze", str(SRC), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 0
        assert payload["exit_code"] == 0
        assert payload["tool"] == "repro analyze"

    def test_repro_analyze_list_rules(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "checkpoint-completeness",
            "async-blocking",
            "determinism-taint",
            "layering",
            "protocol-conformance",
            "predictor-contract",
            "determinism",
            "phase-id-range",
            "no-float-equality",
            "mutable-default-args",
            "units-docstring",
        ):
            assert name in out
        assert "repro-analyze: disable=" in out

    def test_repro_analyze_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nstart = time.time()\n")
        assert repro_main(["analyze", str(tmp_path)]) == 1
        assert "determinism" in capsys.readouterr().out

    def test_lint_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["lint", str(SRC)])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_analyze_sarif_stream_on_src(self):
        stream = io.StringIO()
        code = run_analyze([str(SRC)], output_format="sarif", stream=stream)
        assert code == 0
        log = json.loads(stream.getvalue())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []


class TestMutationCatchesCheckpointLoss:
    """Dropping a field from GPHT's export dict must fail the analysis."""

    def test_pristine_gpht_copy_is_clean(self, tmp_path):
        (tmp_path / "gpht.py").write_text(GPHT.read_text())
        report = AnalyzeEngine().run([str(tmp_path)])
        assert report.findings == []

    def test_dropped_export_field_is_flagged(self, tmp_path):
        source = GPHT.read_text()
        mutated = source.replace('"hits": self._hits,', "")
        assert mutated != source, "gpht.py export_state no longer has hits"
        (tmp_path / "gpht.py").write_text(mutated)
        report = AnalyzeEngine().run([str(tmp_path)])
        checkpoint = [
            f for f in report.findings
            if f.rule == "checkpoint-completeness"
        ]
        assert len(checkpoint) == 1
        finding = checkpoint[0]
        assert finding.path.endswith("gpht.py")
        assert finding.line > 0
        assert "_hits" in finding.message
        assert report.exit_code == 1


class TestMutationCatchesBlockingHandler:
    """A time.sleep added to an async serve handler must be flagged."""

    def _scratch(self, tmp_path, source):
        serve = tmp_path / "serve"
        serve.mkdir()
        (serve / "__init__.py").write_text("")
        (serve / "frontends.py").write_text(source)
        return AnalyzeEngine().run([str(tmp_path)])

    def test_pristine_frontends_copy_is_clean(self, tmp_path):
        report = self._scratch(tmp_path, FRONTENDS.read_text())
        assert report.findings == []

    def test_sleeping_handler_is_flagged(self, tmp_path):
        mutated = FRONTENDS.read_text() + (
            "\n\nasync def _scratch_handler() -> None:\n"
            "    time.sleep(0.01)\n"
        )
        report = self._scratch(tmp_path, mutated)
        blocking = [
            f for f in report.findings if f.rule == "async-blocking"
        ]
        assert len(blocking) == 1
        finding = blocking[0]
        assert finding.path.endswith("frontends.py")
        expected_line = (
            mutated.splitlines().index("    time.sleep(0.01)") + 1
        )
        assert finding.line == expected_line
        assert "time.sleep" in finding.message
        assert report.exit_code == 1
