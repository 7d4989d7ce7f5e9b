"""Self-check of the per-file rules: the repository's sources satisfy them.

The six per-file rules (phase-id range, predictor contract,
determinism, float equality, mutable defaults, units docstrings) run as
analyses of ``repro analyze``.  A PR introducing ``time.time()`` into
``core/``, a float ``==`` in ``power/``, or an incomplete predictor makes
these tests fail before the sweep-level tests can silently produce
garbage.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.devtools.analyze import AnalyzeEngine, registered_analyses, run_analyze
from repro.devtools.analyze.engine import EXIT_CLEAN

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
PER_FILE_RULES = (
    "determinism",
    "mutable-default-args",
    "no-float-equality",
    "phase-id-range",
    "predictor-contract",
    "units-docstring",
)


class TestRepositoryIsClean:
    def test_engine_clean_on_src(self):
        analyses = registered_analyses()
        engine = AnalyzeEngine([analyses[name]() for name in PER_FILE_RULES])
        report = engine.run([str(SRC)])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.findings == [], f"per-file rule regressions:\n{formatted}"
        assert report.errors == []
        assert report.files_checked > 50

    def test_module_entry_point_clean_on_src(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.devtools.analyze", str(SRC)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert completed.returncode == EXIT_CLEAN, completed.stdout + completed.stderr
        assert "clean" in completed.stdout


class TestCliIntegration:
    def test_repro_lint_src_exits_zero(self, capsys):
        packages = [str(SRC / "repro" / name) for name in ("core", "power", "cpu")]
        assert repro_main(["analyze", *packages]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_lint_json_format(self, tmp_path, capsys):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "bad.py").write_text(
            "phase = 0\nflag = phase == 0.0\n"
        )
        assert repro_main(["analyze", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 2
        assert payload["exit_code"] == 1
        assert {(f["rule"], f["line"]) for f in payload["findings"]} == {
            ("phase-id-range", 1),
            ("no-float-equality", 2),
        }

    def test_repro_lint_list_rules(self, capsys):
        assert repro_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_name in PER_FILE_RULES:
            assert rule_name in out
        assert "repro-analyze: disable=<rule> -- <justification>" in out
        assert "repro-lint" not in out

    def test_run_lint_json_stream(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        stream = io.StringIO()
        code = run_analyze([str(tmp_path)], output_format="json", stream=stream)
        assert code == EXIT_CLEAN
        payload = json.loads(stream.getvalue())
        assert payload["files_checked"] == 1
        assert payload["findings"] == []
