"""Command-line front-end of the static analyzer.

Shared by the packaged CLI (``repro analyze``) and the module entry
point (``python -m repro.devtools.analyze``): both parse the same
options and delegate to :func:`run_analyze`.  Exit codes are 0 clean,
1 findings, 2 errors (unreadable or unparsable input).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, TextIO

from repro.devtools.reporting import OUTPUT_FORMATS, renderer_for

from repro.devtools.analyze.engine import EXIT_CLEAN, AnalyzeEngine
from repro.devtools.analyze.analyses import default_analyses

#: Paths analyzed when none are given on the command line.
DEFAULT_PATHS = ("src",)


def list_analyses_text() -> str:
    """A table of every registered analysis name and description."""
    analyses = default_analyses()
    width = max(len(analysis.name) for analysis in analyses)
    lines = [
        f"{analysis.name:<{width}}  {analysis.description}"
        for analysis in analyses
    ]
    lines.append(
        "\nsuppress a finding inline with: "
        "# repro-analyze: disable=<rule> -- <justification>"
    )
    return "\n".join(lines)


def run_analyze(
    paths: Sequence[str],
    output_format: str = "text",
    stream: Optional[TextIO] = None,
) -> int:
    """Analyze ``paths`` as one project and print a report; returns exit code."""
    out = stream if stream is not None else sys.stdout
    engine = AnalyzeEngine(default_analyses())
    report = engine.run(list(paths))
    renderer = renderer_for(output_format)
    print(renderer(report, "repro analyze"), file=out)
    return report.exit_code


def build_parser(prog: str = "repro analyze") -> argparse.ArgumentParser:
    """The argument parser shared by both entry points."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Domain-aware static analysis: the paper's phase, predictor, "
            "determinism and unit invariants per file, plus checkpoint "
            "completeness, async-blocking reachability, determinism "
            "taint, layering and protocol conformance across src/repro."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories forming the project (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=OUTPUT_FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered analysis and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.devtools.analyze``."""
    args = build_parser(
        prog="python -m repro.devtools.analyze"
    ).parse_args(argv)
    if args.list_rules:
        print(list_analyses_text())
        return EXIT_CLEAN
    return run_analyze(args.paths, output_format=args.format)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
