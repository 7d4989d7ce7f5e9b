"""Rule R3: phase-id literals must lie in the paper's 1..6 range.

Table 1 defines exactly six phases, and every component — predictors,
policies, the governor — identifies them by 1-based integer id.  An
integer literal outside 1..6 assigned or compared to a phase-named
variable is almost certainly an off-by-one (0-based indexing creeping
in) or a stale magic number.  Intentional sentinels (such as the GPHT's
``EMPTY_PHASE = 0``) carry a justified inline suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Valid phase ids per the paper's Table 1.
PHASE_MIN = 1
PHASE_MAX = 6


def _is_phase_identifier(name: str) -> bool:
    lowered = name.lower()
    return (
        lowered in ("phase", "phase_id")
        or lowered.endswith("_phase")
        or lowered.endswith("_phase_id")
    )


def _target_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _int_literal(node: ast.expr) -> Optional[int]:
    value = node
    negate = False
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
        negate = True
        value = value.operand
    if (
        isinstance(value, ast.Constant)
        and isinstance(value.value, int)
        and not isinstance(value.value, bool)
    ):
        return -value.value if negate else value.value
    return None


@register_analysis
class PhaseIdRangeAnalysis(Analysis):
    """Flag phase-named targets bound or equated to out-of-range ints."""

    name = "phase-id-range"
    description = (
        f"integer literals assigned or compared (==/!=) to phase-named "
        f"variables must lie in {PHASE_MIN}..{PHASE_MAX} (Table 1)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            for node in ast.walk(module.parsed.tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    yield from self._check_assignment(module.path, node)
                elif isinstance(node, ast.Compare):
                    yield from self._check_comparison(module.path, node)

    def _check_assignment(
        self, path: str, node: Union[ast.Assign, ast.AnnAssign]
    ) -> Iterator[Finding]:
        targets: List[ast.expr] = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if node.value is None:
            return
        literal = _int_literal(node.value)
        if literal is None or PHASE_MIN <= literal <= PHASE_MAX:
            return
        for target in targets:
            target_name = _target_name(target)
            if target_name is not None and _is_phase_identifier(target_name):
                yield self.finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    f"{target_name} assigned literal {literal}, outside the "
                    f"valid phase range {PHASE_MIN}..{PHASE_MAX}",
                )

    def _check_comparison(self, path: str, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            for named, other in ((left, right), (right, left)):
                named_id = _target_name(named)
                if named_id is None or not _is_phase_identifier(named_id):
                    continue
                literal = _int_literal(other)
                if literal is None or PHASE_MIN <= literal <= PHASE_MAX:
                    continue
                yield self.finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    f"{named_id} compared to literal {literal}, outside the "
                    f"valid phase range {PHASE_MIN}..{PHASE_MAX}",
                )
