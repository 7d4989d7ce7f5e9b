"""Rule R1: classes deriving from ``PhasePredictor`` honour the contract.

The paper's PMI handler drives every predictor through the same
observe/predict cycle (Section 3); a predictor missing ``observe`` or
``predict`` — or reporting no ``name`` for figures — fails only deep
inside a sweep.  A subclass that shadows ``DEFAULT_PHASE`` with a
non-``int`` silently breaks the cold-start guarantee (phase ids are
integers 1..6, Table 1).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Methods every concrete predictor must define (the PMI-handler contract).
REQUIRED_MEMBERS: Tuple[str, ...] = ("name", "observe", "predict")

_BASE_CLASS = "PhasePredictor"


def _derives_from_predictor(node: ast.ClassDef) -> bool:
    """Whether the class lists ``PhasePredictor`` as a direct base."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == _BASE_CLASS:
            return True
        if isinstance(base, ast.Attribute) and base.attr == _BASE_CLASS:
            return True
    return False


def _is_int_literal(node: ast.expr) -> bool:
    value = node
    if isinstance(value, ast.UnaryOp) and isinstance(
        value.op, (ast.UAdd, ast.USub)
    ):
        value = value.operand
    return (
        isinstance(value, ast.Constant)
        and isinstance(value.value, int)
        and not isinstance(value.value, bool)
    )


@register_analysis
class PredictorContractAnalysis(Analysis):
    """Enforce the observe/predict contract on ``PhasePredictor`` subclasses."""

    name = "predictor-contract"
    description = (
        "classes deriving from PhasePredictor must define "
        "name/observe/predict and keep DEFAULT_PHASE an int"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            for node in ast.walk(module.parsed.tree):
                if isinstance(node, ast.ClassDef) and _derives_from_predictor(node):
                    yield from self._check_class(module.path, node)

    def _check_class(self, path: str, node: ast.ClassDef) -> Iterator[Finding]:
        defined = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        missing = [m for m in REQUIRED_MEMBERS if m not in defined]
        if missing:
            yield self.finding(
                path,
                node.lineno,
                node.col_offset,
                f"predictor {node.name!r} does not implement "
                f"{', '.join(missing)} (PMI-handler contract)",
            )
        for stmt in node.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and target.id == "DEFAULT_PHASE"
                and value is not None
                and not _is_int_literal(value)
            ):
                yield self.finding(
                    path,
                    stmt.lineno,
                    stmt.col_offset,
                    f"predictor {node.name!r} shadows DEFAULT_PHASE with a "
                    "non-int value (phase ids are integers)",
                )
