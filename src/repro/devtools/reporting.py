"""Report renderers for the static analyzer.

``repro analyze`` produces one report shape
(:class:`repro.devtools.analyze.engine.LintReport`: findings, error
messages, a files-checked count, and exit-code semantics).  This module
is the single place that turns such a report into output:

* :func:`render_text` — one ``path:line:col: rule: message`` line per
  finding plus a one-line summary;
* :func:`render_json` — the report's ``to_dict()`` as an indented JSON
  document;
* :func:`render_sarif` — a minimal SARIF 2.1.0 log, the format CI
  services ingest to annotate pull requests with per-line findings.

Renderers are looked up by name via :func:`renderer_for`, so a CLI adds
a format by adding a name here, not by growing another ``if`` ladder.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:  # the analyze package imports this module at load time
    from repro.devtools.analyze.engine import LintReport

#: SARIF version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
#: Schema URI embedded in SARIF logs (what GitHub code scanning expects).
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Formats ``repro analyze`` accepts, in help-text order.
OUTPUT_FORMATS: Tuple[str, ...] = ("text", "json", "sarif")


def render_text(report: LintReport, tool: str = "repro analyze") -> str:
    """The human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in report.findings]
    lines.extend(f"error: {message}" for message in report.errors)
    noun = "file" if report.files_checked == 1 else "files"
    if not report.findings and not report.errors:
        lines.append(f"{tool}: {report.files_checked} {noun} clean")
    else:
        lines.append(
            f"{tool}: {len(report.findings)} finding(s), "
            f"{len(report.errors)} error(s) in {report.files_checked} {noun}"
        )
    return "\n".join(lines)


def render_json(report: LintReport, tool: str = "repro analyze") -> str:
    """The machine-readable report as a JSON document."""
    payload = report.to_dict()
    payload["tool"] = tool
    return json.dumps(payload, indent=2)


def render_sarif(report: LintReport, tool: str = "repro analyze") -> str:
    """The report as a SARIF 2.1.0 log for CI annotation.

    Findings become ``warning``-level results; engine errors (unreadable
    or unparsable files) become ``error``-level tool notifications so a
    red run is still visible in SARIF-only consumers.
    """
    rule_ids: List[str] = sorted({f.rule for f in report.findings})
    results = [
        {
            "ruleId": finding.rule,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based; findings are 0-based.
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    notifications = [
        {"level": "error", "message": {"text": message}}
        for message in report.errors
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "rules": [{"id": rule_id} for rule_id in rule_ids],
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(log, indent=2)


_RENDERERS: Dict[str, Callable[[LintReport, str], str]] = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def renderer_for(output_format: str) -> Callable[[LintReport, str], str]:
    """The renderer for ``output_format``.

    Raises:
        ValueError: On a format name outside :data:`OUTPUT_FORMATS`.
    """
    try:
        return _RENDERERS[output_format]
    except KeyError:
        raise ValueError(
            f"unknown output format {output_format!r}; "
            f"expected one of {', '.join(OUTPUT_FORMATS)}"
        ) from None
