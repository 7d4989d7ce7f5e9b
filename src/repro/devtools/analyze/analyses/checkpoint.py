"""Checkpoint-completeness: every mutable field must survive a snapshot.

The paper's live-monitoring pipeline depends on lossless predictor
checkpointing: ``export_state``/``restore_state`` (predictors) and
``snapshot``/``from_snapshot`` (serve sessions) must round-trip *every*
piece of mutable state, or a restored instance silently diverges from
the live one — exactly the failure mode the serve tier's migration and
recovery paths cannot tolerate.

For each class defining both halves of a checkpoint pair, this analysis
collects every ``self.<attr>`` assignment across the class and demands
that each mutable field is

* **read somewhere in the export half** (it contributes to the
  checkpoint payload), and
* **written somewhere in the restore half** (a restored instance gets
  it back) — attribute stores on any receiver count, so classmethod
  restores writing ``session._x = ...`` are recognised.

Fields whose every assignment is a bare ``self._x = param`` copy of an
``__init__`` (or other method) parameter are *configuration wiring*:
they are reconstructed by the constructor on restore and are exempt.
Anything else — defaults, computed values, containers — is mutable
state and must round-trip or carry a justified suppression.

Pairs whose bodies are trivial (a docstring plus ``raise``) are
skipped: those are abstract-interface placeholders, not checkpoints.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project, ProjectModule

#: The recognised checkpoint pairs, as (export member, restore member).
CHECKPOINT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("export_state", "restore_state"),
    ("snapshot", "from_snapshot"),
)


@dataclass
class _FieldRecord:
    """Where a field is first assigned and whether it is only wiring."""

    line: int
    col: int
    wiring_only: bool = True


def _is_trivial(func: ast.AST) -> bool:
    """A docstring-plus-``raise`` body: an interface default, not code."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    body = list(func.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _is_abstract(func: ast.AST) -> bool:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    for decorator in func.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else ""
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _param_names(func: ast.AST) -> Set[str]:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = func.args
    names = [arg.arg for arg in args.args + args.kwonlyargs]
    names.extend(arg.arg for arg in getattr(args, "posonlyargs", []))
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """The attribute name when ``node`` is a ``self.<attr>`` target."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_fields(class_node: ast.ClassDef) -> Dict[str, _FieldRecord]:
    """Every ``self.<attr>`` assigned anywhere in the class's methods.

    A field stays ``wiring_only`` while its every assignment is a bare
    ``self._x = param`` copy of the enclosing method's parameter; any
    other assignment shape marks it as real mutable state.
    """
    fields: Dict[str, _FieldRecord] = {}
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _param_names(method)
        for node in ast.walk(method):
            targets: List[Tuple[str, ast.AST, bool]] = []
            if isinstance(node, ast.Assign):
                is_bare_param = isinstance(
                    node.value, ast.Name
                ) and node.value.id in params
                for target in node.targets:
                    attr = _self_attr_target(target)
                    if attr is not None:
                        targets.append((attr, target, is_bare_param))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = _self_attr_target(node.target)
                if attr is not None:
                    is_bare_param = isinstance(
                        node.value, ast.Name
                    ) and node.value.id in params
                    targets.append((attr, node.target, is_bare_param))
            elif isinstance(node, ast.AugAssign):
                attr = _self_attr_target(node.target)
                if attr is not None:
                    targets.append((attr, node.target, False))
            for attr, target, is_bare_param in targets:
                if attr.startswith("__"):
                    continue
                record = fields.get(attr)
                if record is None:
                    fields[attr] = _FieldRecord(
                        line=getattr(target, "lineno", method.lineno),
                        col=getattr(target, "col_offset", 0),
                        wiring_only=is_bare_param,
                    )
                else:
                    record.wiring_only = record.wiring_only and is_bare_param
    return fields


def _attrs_referenced(func: ast.AST, stores_only: bool) -> Set[str]:
    """Attribute names touched (on any receiver) inside ``func``.

    ``stores_only`` restricts to assignment targets — the restore half
    must *write* a field back, not merely mention it.  Any receiver
    expression counts (``self._x``, ``session._x``, ``state._x``) so
    both instance methods and classmethod restores are covered.
    """
    attrs: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if stores_only and not isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                continue
            attrs.add(node.attr)
    return attrs


@register_analysis
class CheckpointCompletenessAnalysis(Analysis):
    """Fields missing from an export/restore pair."""

    name = "checkpoint-completeness"
    description = (
        "every mutable self.<attr> field must be exported and restored "
        "by the class's checkpoint pair (export_state/restore_state, "
        "snapshot/from_snapshot)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            yield from self._check_module(module)

    def _check_module(self, module: ProjectModule) -> Iterator[Finding]:
        for node in module.parsed.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ProjectModule, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            child.name: child
            for child in class_node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for export_name, restore_name in CHECKPOINT_PAIRS:
            export = methods.get(export_name)
            restore = methods.get(restore_name)
            if export is None or restore is None:
                continue
            if _is_trivial(export) or _is_trivial(restore):
                continue
            if _is_abstract(export) or _is_abstract(restore):
                continue
            yield from self._check_pair(
                module, class_node, export, restore
            )

    def _check_pair(
        self,
        module: ProjectModule,
        class_node: ast.ClassDef,
        export: ast.AST,
        restore: ast.AST,
    ) -> Iterator[Finding]:
        assert isinstance(export, (ast.FunctionDef, ast.AsyncFunctionDef))
        assert isinstance(restore, (ast.FunctionDef, ast.AsyncFunctionDef))
        fields = _collect_fields(class_node)
        exported = _attrs_referenced(export, stores_only=False)
        restored = _attrs_referenced(restore, stores_only=True)
        for attr in sorted(fields):
            record = fields[attr]
            if record.wiring_only:
                continue
            missing: List[str] = []
            if attr not in exported:
                missing.append(f"not read by {export.name!r}")
            if attr not in restored:
                missing.append(f"not written by {restore.name!r}")
            if missing:
                yield self.finding(
                    path=module.path,
                    line=record.line,
                    col=record.col,
                    message=(
                        f"mutable field {class_node.name}.{attr} is "
                        f"{' and '.join(missing)}: a checkpointed instance "
                        "will silently diverge after restore"
                    ),
                )
