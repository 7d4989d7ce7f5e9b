"""The static-analysis engine: findings, registry, suppressions, reports.

One engine runs every rule.  Each :class:`Analysis` receives the whole
:class:`Project`: per-file rules (``determinism``, ``phase-id-range``,
...) walk ``project.modules()`` and scope themselves by directory with
:meth:`ParsedModule.in_package`, while cross-module analyses use the
import and call graphs.  Every analysis yields :class:`Finding` objects
that the engine filters through inline suppressions and aggregates into
a :class:`LintReport` with stable exit codes (:data:`EXIT_CLEAN` /
:data:`EXIT_FINDINGS` / :data:`EXIT_ERROR`).

Suppression syntax
------------------

Findings assert *invariants* (phase ids in 1..6, lossless checkpoints,
a non-blocking serve path), so silencing one requires saying why::

    EMPTY_PHASE = 0  # repro-analyze: disable=phase-id-range -- GPHT empty-slot sentinel, never a real phase

A ``repro-analyze: disable=`` comment **without** a ``-- <why>``
justification does not suppress anything; it is itself reported under
the ``suppression`` rule.  This is the mandatory-justification policy:
every silenced finding carries its reasoning in the diff, next to the
code it excuses.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.devtools.analyze.project import Project, load_project

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "Analysis",
    "AnalyzeEngine",
    "Finding",
    "LintReport",
    "Suppression",
    "parse_analyze_suppressions",
    "register_analysis",
    "registered_analyses",
]

#: Exit code when no findings (and no errors) were produced.
EXIT_CLEAN = 0
#: Exit code when at least one finding survived suppression.
EXIT_FINDINGS = 1
#: Exit code on unreadable or syntactically invalid input.
EXIT_ERROR = 2


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Path of the offending file, as given to the engine.
        line: 1-based line number.
        col: 0-based column offset.
        rule: Name of the rule that produced the finding.
        message: Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render in the conventional ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Aggregated outcome of one engine run.

    Attributes:
        findings: Surviving (unsuppressed) findings, sorted by location.
        files_checked: Number of files successfully parsed and analyzed.
        errors: Messages for files that could not be read or parsed.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Process exit code: errors beat findings beat clean."""
        if self.errors:
            return EXIT_ERROR
        if self.findings:
            return EXIT_FINDINGS
        return EXIT_CLEAN

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation of the whole report."""
        return {
            "files_checked": self.files_checked,
            "finding_count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
            "errors": list(self.errors),
            "exit_code": self.exit_code,
        }


#: Rule name under which malformed suppressions are reported.
SUPPRESSION_RULE = "suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-analyze:\s*disable=([A-Za-z0-9_,\- ]+?)"
    r"(?:\s*--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``repro-analyze`` suppression comment.

    Attributes:
        line: 1-based line the comment sits on (the suppressed line).
        rules: Rule names it names (``all`` matches every rule).
        justification: The text after ``--``; ``None`` when missing, in
            which case the suppression is inert and reported.
    """

    line: int
    rules: Tuple[str, ...]
    justification: Optional[str]

    @property
    def valid(self) -> bool:
        """Whether this suppression carries a justification."""
        return bool(self.justification)

    def matches(self, rule: str) -> bool:
        """Whether this (valid) suppression silences ``rule``."""
        return self.valid and (rule in self.rules or "all" in self.rules)


def parse_analyze_suppressions(source: str) -> Dict[int, Suppression]:
    """Map 1-based line numbers to their suppression comments."""
    suppressions: Dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if not rules:
            continue
        suppressions[lineno] = Suppression(
            line=lineno,
            rules=rules,
            justification=match.group(2),
        )
    return suppressions


class Analysis(ABC):
    """One rule: inspects a project, yields findings.

    Class attributes:
        name: Stable identifier (reports, suppressions, ``--list-rules``).
        description: One-line summary shown by ``--list-rules``.
    """

    name: str = ""
    description: str = ""

    @abstractmethod
    def check(self, project: Project) -> Iterator[Finding]:
        """Yield every violation this analysis finds in ``project``."""

    def finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding attributed to this analysis."""
        return Finding(
            path=path, line=line, col=col, rule=self.name, message=message
        )

    def __repr__(self) -> str:
        return f"<Analysis {self.name}>"


_REGISTRY: Dict[str, Type[Analysis]] = {}


def register_analysis(analysis_class: Type[Analysis]) -> Type[Analysis]:
    """Class decorator adding an analysis to the global registry.

    Raises:
        ValueError: On a missing or duplicate analysis name.
    """
    if not analysis_class.name:
        raise ValueError(f"analysis {analysis_class.__name__} has no name")
    existing = _REGISTRY.get(analysis_class.name)
    if existing is not None and existing is not analysis_class:
        raise ValueError(f"duplicate analysis name {analysis_class.name!r}")
    _REGISTRY[analysis_class.name] = analysis_class
    return analysis_class


def registered_analyses() -> Dict[str, Type[Analysis]]:
    """A copy of the analysis registry, keyed by name."""
    return dict(_REGISTRY)


class AnalyzeEngine:
    """Runs analyses over a project and aggregates a report.

    Args:
        analyses: Analysis instances to apply (default: every registered
            analysis, in name order).
    """

    def __init__(self, analyses: Sequence[Analysis] = ()) -> None:
        self._analyses: List[Analysis] = list(analyses)
        if not self._analyses:
            self._analyses = [
                analysis_class()
                for _, analysis_class in sorted(_REGISTRY.items())
            ]

    @property
    def analyses(self) -> Tuple[Analysis, ...]:
        """The analyses this engine applies, in order."""
        return tuple(self._analyses)

    def analyze_project(self, project: Project) -> List[Finding]:
        """Run every analysis; apply suppressions; report malformed ones."""
        suppressions_by_path: Dict[str, Dict[int, Suppression]] = {
            module.path: parse_analyze_suppressions(module.parsed.source)
            for module in project.modules()
        }
        findings: List[Finding] = []
        for analysis in self._analyses:
            for found in analysis.check(project):
                per_line = suppressions_by_path.get(found.path, {})
                suppression = per_line.get(found.line)
                if suppression is not None and suppression.matches(found.rule):
                    continue
                findings.append(found)
        for path, per_line in suppressions_by_path.items():
            for suppression in per_line.values():
                if not suppression.valid:
                    findings.append(
                        Finding(
                            path=path,
                            line=suppression.line,
                            col=0,
                            rule=SUPPRESSION_RULE,
                            message=(
                                "suppression without justification has no "
                                "effect; write '# repro-analyze: "
                                f"disable={','.join(suppression.rules)} "
                                "-- <why this is safe>'"
                            ),
                        )
                    )
        return sorted(findings)

    def run(self, paths: Sequence[str]) -> LintReport:
        """Analyze every Python file under ``paths`` as one project."""
        project, errors, files_checked = load_project(list(paths))
        report = LintReport(files_checked=files_checked, errors=errors)
        report.findings.extend(self.analyze_project(project))
        report.findings.sort()
        return report
