"""The built-in analyses: six per-file rules and five cross-module ones.

Importing this package registers every analysis with the engine's
registry; call :func:`default_analyses` for ready-to-run instances.
"""

from __future__ import annotations

from typing import List

from repro.devtools.analyze.engine import Analysis, registered_analyses

# Imported for their registration side effects.
from repro.devtools.analyze.analyses import (  # noqa: F401
    async_blocking,
    checkpoint,
    determinism,
    float_equality,
    layering,
    mutable_defaults,
    phase_id_range,
    predictor_contract,
    protocol,
    taint,
    units_docstring,
)

__all__ = ["default_analyses"]


def default_analyses() -> List[Analysis]:
    """One instance of every registered analysis, in name order."""
    return [
        analysis_class()
        for _, analysis_class in sorted(registered_analyses().items())
    ]
