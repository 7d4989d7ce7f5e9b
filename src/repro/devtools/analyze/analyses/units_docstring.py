"""Rule R6: unit-bearing function names must document their units.

The paper's power methodology lives and dies by unit discipline
(watts from sense-resistor voltages, joules from P*t integration, MHz
from SpeedStep tables).  A public function in ``power/`` or ``cpu/``
whose *name* advertises a unit — ``average_power_w``, ``power_watts``,
``frequency_hz`` — must say so in its docstring, so callers never have
to guess a scale factor.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Packages whose public API carries physical units.
PACKAGES: Tuple[str, ...] = ("power", "cpu")

#: Name fragments that advertise a unit when they appear as a whole
#: ``_``-separated part of a function name.
_UNIT_NAME_PARTS = ("w", "j", "ws", "js")

#: Substrings of a name part that advertise a unit anywhere in the name.
_UNIT_NAME_SUBSTRINGS = ("watt", "joule", "hz")

#: Docstring substrings accepted as documenting the unit.
_UNIT_DOC_TERMS = ("watt", "joule", "hz", "hertz")


def _name_mentions_unit(function_name: str) -> bool:
    parts = function_name.lower().split("_")
    if any(part in _UNIT_NAME_PARTS for part in parts):
        return True
    return any(
        token in part for part in parts for token in _UNIT_NAME_SUBSTRINGS
    )


def _docstring_mentions_unit(docstring: str) -> bool:
    lowered = docstring.lower()
    return any(term in lowered for term in _UNIT_DOC_TERMS)


@register_analysis
class UnitsDocstringAnalysis(Analysis):
    """Require unit terms in docstrings of unit-named public functions."""

    name = "units-docstring"
    description = (
        "public functions in power/ or cpu/ whose names mention "
        "watts/joules/hz must document the unit in their docstring"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            if not module.parsed.in_package(*PACKAGES):
                continue
            for node in ast.walk(module.parsed.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_") or not _name_mentions_unit(node.name):
                    continue
                docstring = ast.get_docstring(node)
                if docstring is None:
                    problem = "has no docstring"
                elif not _docstring_mentions_unit(docstring):
                    problem = (
                        "its docstring never states the unit (watts/joules/hertz)"
                    )
                else:
                    continue
                yield self.finding(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"function {node.name!r} advertises a unit in its name "
                    f"but {problem}",
                )
