"""Tests for the regression gate (`repro bench compare` internals)."""

import json

import pytest

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_results,
    load_results_dir,
)
from repro.bench.schema import BenchFormatError, BenchResult
from repro.errors import ConfigurationError


def payload(name, metrics=None, measured=None, parameters=None):
    return BenchResult.create(
        name,
        metrics=metrics,
        measured=measured,
        parameters=parameters,
    ).to_payload()


class TestRegressionRule:
    def test_identical_results_pass(self):
        base = {"b": payload("b", metrics={"accuracy": 0.9})}
        report = compare_results(base, base)
        assert report.exit_code() == 0
        assert not report.regressions

    def test_fifteen_percent_throughput_drop_fails_enforced(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 85_000.0})}
        report = compare_results(cur, base, enforce=True)
        assert report.exit_code() == 1
        (delta,) = report.regressions
        assert delta.metric == "samples_per_s"
        assert delta.change == pytest.approx(-0.15)

    def test_five_percent_drop_is_within_tolerance(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 95_000.0})}
        report = compare_results(cur, base, enforce=True)
        assert report.exit_code() == 0

    def test_measured_not_gated_without_enforce(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_ENFORCE", raising=False)
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 20_000.0})}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        assert not report.enforced

    def test_enforce_env_gates_measured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENFORCE", "1")
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 20_000.0})}
        report = compare_results(cur, base)
        assert report.enforced
        assert report.exit_code() == 1

    def test_deterministic_metric_gated_without_enforce(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_ENFORCE", raising=False)
        base = {"a": payload("a", metrics={"accuracy": 0.90})}
        cur = {"a": payload("a", metrics={"accuracy": 0.70})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1

    def test_lower_is_better_honored(self):
        # performance_degradation: an increase is the regression.
        base = {"d": payload("d", metrics={"performance_degradation": 0.04})}
        worse = {"d": payload("d", metrics={"performance_degradation": 0.08})}
        better = {"d": payload("d", metrics={"performance_degradation": 0.01})}
        assert compare_results(worse, base).exit_code() == 1
        assert compare_results(better, base).exit_code() == 0

    def test_improvement_never_regresses(self):
        base = {"a": payload("a", metrics={"accuracy": 0.80})}
        cur = {"a": payload("a", metrics={"accuracy": 0.99})}
        assert compare_results(cur, base).exit_code() == 0

    def test_undeclared_direction_is_informational(self):
        base = {"x": payload("x", metrics={"n_widgets": 10})}
        cur = {"x": payload("x", metrics={"n_widgets": 2})}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        (delta,) = report.comparisons[0].deltas
        assert delta.direction is None and not delta.gated

    def test_missing_baseline_artifact_fails(self):
        base = {}
        cur = {"new_bench": payload("new_bench", metrics={"accuracy": 0.9})}
        report = compare_results(cur, base)
        assert report.exit_code() == 1
        assert report.comparisons[0].status == "missing_baseline"

    def test_baseline_only_artifacts_are_skipped(self):
        base = {
            "a": payload("a", metrics={"accuracy": 0.9}),
            "b": payload("b", metrics={"accuracy": 0.9}),
        }
        cur = {"a": payload("a", metrics={"accuracy": 0.9})}
        report = compare_results(cur, base)
        assert report.exit_code() == 0
        assert report.baseline_only == ("b",)

    def test_zero_baseline_movement_is_infinite_change(self):
        base = {"a": payload("a", metrics={"accuracy": 0.0})}
        cur = {"a": payload("a", metrics={"accuracy": 0.5})}
        report = compare_results(cur, base)
        # Moved in the good direction: not a regression.
        assert report.exit_code() == 0

    def test_tolerance_must_be_a_fraction(self):
        base = {"a": payload("a", metrics={"accuracy": 0.9})}
        with pytest.raises(ConfigurationError):
            compare_results(base, base, tolerance=10.0)

    def test_default_tolerance_is_ten_percent(self):
        assert DEFAULT_TOLERANCE == 0.10

    def test_report_payload_and_text_render(self):
        base = {"t": payload("t", measured={"samples_per_s": 100_000.0})}
        cur = {"t": payload("t", measured={"samples_per_s": 80_000.0})}
        report = compare_results(cur, base, enforce=True)
        rendered = report.render_text()
        assert "REGRESSED" in rendered and "FAIL" in rendered
        as_json = report.to_payload()
        assert as_json["ok"] is False
        assert as_json["artifacts"][0]["status"] == "regressed"


class TestLoadResultsDir:
    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_results_dir(tmp_path / "nope")

    def test_loads_current_and_refuses_legacy(self, tmp_path):
        current = BenchResult.create("modern", metrics={"accuracy": 0.9})
        (tmp_path / "modern.json").write_text(current.to_json())
        assert set(load_results_dir(tmp_path)) == {"modern"}
        legacy = {
            "benchmark": "applu_in",
            "scalar_samples_per_s": 1.0,
            "batch_samples_per_s": 9.0,
        }
        (tmp_path / "batch_feed_throughput.json").write_text(
            json.dumps(legacy)
        )
        with pytest.raises(BenchFormatError, match="batch_feed_throughput.json"):
            load_results_dir(tmp_path)

    def test_malformed_artifact_names_the_file(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(BenchFormatError, match="bad.json"):
            load_results_dir(tmp_path)
