"""Rule R5: no mutable default argument values.

A list/dict/set default is evaluated once at function definition and
shared across every call — state leaking between benchmark runs is a
classic source of irreproducible sweeps.  Use ``None`` plus an in-body
default instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

_MUTABLE_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

_MUTABLE_CONSTRUCTORS = ("list", "dict", "set", "bytearray")

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


@register_analysis
class MutableDefaultArgsAnalysis(Analysis):
    """Flag list/dict/set (display or constructor) default arguments."""

    name = "mutable-default-args"
    description = (
        "no mutable default argument values (shared across calls); "
        "default to None and build inside the function"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            for node in ast.walk(module.parsed.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    yield from self._check_function(module.path, node)

    def _check_function(self, path: str, node: _FunctionNode) -> Iterator[Finding]:
        label = (
            "lambda"
            if isinstance(node, ast.Lambda)
            else f"function {node.name!r}"
        )
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield self.finding(
                    path,
                    default.lineno,
                    default.col_offset,
                    f"{label} has a mutable default argument (evaluated "
                    "once, shared across calls); use None instead",
                )
