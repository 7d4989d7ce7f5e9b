"""Rule R4: no exact float equality in ``core/`` and ``power/``.

Accumulated physical quantities (seconds, joules, watts) are floats, so
``==``/``!=`` against float values is fragile and silently
platform-dependent — exactly the kind of drift that makes a 33-benchmark
sweep irreproducible.  The rule flags equality comparisons where either
operand is *textually* a float — a float literal (``0.0``,
``float("inf")``) — which keeps the heuristic deterministic without
type inference.  Use :mod:`repro.numerics` (``is_zero``,
``approx_equal``) or ``math.isinf``/``math.isclose`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Packages where physical quantities are compared.
PACKAGES: Tuple[str, ...] = ("core", "power")


def _is_float_expression(node: ast.expr) -> bool:
    """Whether ``node`` is textually a float: a literal or ``float(...)``."""
    value = node
    if isinstance(value, ast.UnaryOp) and isinstance(
        value.op, (ast.UAdd, ast.USub)
    ):
        value = value.operand
    if isinstance(value, ast.Constant) and isinstance(value.value, float):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "float"
    )


@register_analysis
class FloatEqualityAnalysis(Analysis):
    """Flag ``==``/``!=`` against float expressions in core/ and power/."""

    name = "no-float-equality"
    description = (
        "no ==/!= against float literals in core/ or power/; use "
        "repro.numerics.is_zero/approx_equal or math.isinf/isclose"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            if not module.parsed.in_package(*PACKAGES):
                continue
            for node in ast.walk(module.parsed.tree):
                if isinstance(node, ast.Compare):
                    yield from self._check_compare(module.path, node)

    def _check_compare(self, path: str, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(_is_float_expression(side) for side in pair):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    f"exact float {symbol} comparison; use "
                    "repro.numerics helpers (is_zero/approx_equal) or "
                    "math.isinf/math.isclose",
                )
