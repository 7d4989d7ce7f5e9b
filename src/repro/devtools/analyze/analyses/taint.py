"""Determinism taint: nondeterminism must not reach persisted outputs.

The repo's determinism contract (bit-for-bit equal results for equal
inputs) is what makes the paper's phase-prediction results comparable
across runs.  The per-file ``determinism`` rule bans wall-clock and unseeded
randomness *syntactically* inside deterministic packages; this analysis
upgrades that to a flow-sensitive check over the whole project:

* **sources** — wall-clock reads (``time.time``/``monotonic``/...),
  ``datetime.now``-family calls, unseeded ``random`` module calls,
  ``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets``, and
  environment reads (``os.environ``/``os.getenv``);
* **propagation** — through assignments, arithmetic, f-strings,
  containers, attribute/subscript access, and calls whose arguments are
  tainted; interprocedurally, a project function whose return value is
  tainted taints its call sites (computed to a fixpoint over the call
  graph);
* **sinks** — serialisation and digesting (``json.dumps``,
  ``pickle.dumps``, ``hashlib`` digests, ``zlib.crc32``), file
  persistence tails (``.write_text``/``.write_bytes``), and the
  project's own persistence/digest helpers (``cache_key``,
  ``serialize_response``, ``events_to_jsonl``, ...).

A tainted value reaching a sink means a timestamp, random draw, or
environment setting is being baked into a cache key, digest, wire
payload, or artifact — the exact channels the determinism suite
diffs across runs.  Wall-clock use that stays in telemetry (latency
histograms, progress logs) never reaches a sink and is not flagged.

Limitations (deliberate, documented): injected clocks
(``clock: Clock = time.monotonic`` passed as a *value*) are opaque —
the analysis tracks calls, not higher-order data flow; and taint
through ``self`` fields is tracked per class, not per instance.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyze.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_parts,
)
from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Exact dotted calls producing nondeterministic values.
SOURCE_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.clock_gettime",
    "os.urandom",
    "os.getenv",
    "os.getpid",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: Dotted prefixes producing nondeterministic values.
SOURCE_PREFIXES: Tuple[str, ...] = ("secrets.",)

#: ``datetime``-family method tails that read the wall clock.
SOURCE_DATETIME_TAILS: Tuple[str, ...] = ("now", "utcnow", "today")

#: Exact dotted sink calls (serialisation, digesting).
SINK_CALLS: Tuple[str, ...] = (
    "json.dump",
    "json.dumps",
    "pickle.dump",
    "pickle.dumps",
    "marshal.dump",
    "marshal.dumps",
    "zlib.crc32",
    "zlib.adler32",
)

#: ``hashlib`` constructors; ``.update``/digest calls on their results sink.
HASH_CONSTRUCTOR_PREFIX = "hashlib."

#: Method tails that persist their arguments to disk.
SINK_TAILS: Tuple[str, ...] = ("write_text", "write_bytes")

#: Project-local helpers that persist, digest, or serialise their inputs.
SINK_PROJECT_NAMES: Tuple[str, ...] = (
    "cache_key",
    "serialize_response",
    "serialize_request",
    "events_to_jsonl",
    "events_to_csv",
    "to_json",
    "to_jsonl",
)


def _call_target(
    graph: CallGraph,
    module_name: str,
    class_name: Optional[str],
    fid: str,
    call: ast.Call,
) -> Tuple[Optional[str], Optional[str], str]:
    site = graph.resolve_call(module_name, class_name, fid, call)
    return site.callee, site.external, site.tail


def _is_source_call(
    external: Optional[str], tail: str, call: ast.Call
) -> bool:
    if external is not None:
        if external in SOURCE_CALLS:
            return True
        if any(external.startswith(p) for p in SOURCE_PREFIXES):
            return True
        if external.startswith("random.") or external.startswith(
            "numpy.random."
        ):
            constructor = external.split(".")[-1]
            if constructor in (
                "Random",
                "RandomState",
                "default_rng",
                "seed",
            ) and (call.args or call.keywords):
                return False  # explicitly seeded: deterministic by contract
            return True
        if (
            external.startswith("datetime.")
            and tail in SOURCE_DATETIME_TAILS
        ):
            return True
    # datetime.datetime.now() resolved only as far as an attribute tail.
    if external is None and tail in SOURCE_DATETIME_TAILS and not call.args:
        parts = dotted_parts(call.func)
        if parts is not None and any(
            part in ("datetime", "date") for part in parts[:-1]
        ):
            return True
    return False


def _is_environ_read(node: ast.AST) -> bool:
    """``os.environ[...]`` / ``os.environ.get(...)`` style reads."""
    if isinstance(node, ast.Subscript):
        parts = dotted_parts(node.value)
        return parts is not None and parts[-1] == "environ"
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func)
        if parts is not None and len(parts) >= 2:
            return parts[-2] == "environ" and parts[-1] in ("get", "items")
    return False


class _FunctionTaint(ast.NodeVisitor):
    """One pass of flow-insensitive-within-loops taint over a function.

    Runs twice per function so names tainted late in a loop body taint
    uses earlier in the next iteration; findings are only emitted on the
    final pass.
    """

    def __init__(
        self,
        analysis: "DeterminismTaintAnalysis",
        graph: CallGraph,
        module_name: str,
        module_path: str,
        class_name: Optional[str],
        fid: str,
        tainted_functions: Set[str],
        tainted_fields: Dict[str, Set[str]],
        emit: bool,
    ) -> None:
        self.analysis = analysis
        self.graph = graph
        self.module_name = module_name
        self.module_path = module_path
        self.class_name = class_name
        self.fid = fid
        self.tainted_functions = tainted_functions
        self.tainted_fields = tainted_fields
        self.emit = emit
        self.tainted: Set[str] = set()
        self.hash_objects: Set[str] = set()
        self.returns_tainted = False
        self.findings: List[Finding] = []

    # -- expression taint ---------------------------------------------------

    def expr_tainted(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Call):
            return self.call_tainted(node)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.class_name is not None
            ):
                cid = f"{self.module_name}.{self.class_name}"
                if node.attr in self.tainted_fields.get(cid, ()):
                    return True
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Subscript):
            if _is_environ_read(node):
                return True
            return self.expr_tainted(node.value) or self.expr_tainted(
                node.slice
            )
        if isinstance(node, (ast.BinOp,)):
            return self.expr_tainted(node.left) or self.expr_tainted(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return self.expr_tainted(node.operand)
        if isinstance(node, ast.BoolOp):
            return any(self.expr_tainted(value) for value in node.values)
        if isinstance(node, ast.IfExp):
            return self.expr_tainted(node.body) or self.expr_tainted(
                node.orelse
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.Dict):
            return any(
                self.expr_tainted(part)
                for part in list(node.keys) + list(node.values)
                if part is not None
            )
        if isinstance(node, ast.JoinedStr):
            return any(self.expr_tainted(value) for value in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Await):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Compare):
            return False  # comparisons yield booleans; control flow only
        return False

    def call_tainted(self, call: ast.Call) -> bool:
        callee, external, tail = _call_target(
            self.graph, self.module_name, self.class_name, self.fid, call
        )
        if _is_source_call(external, tail, call) or _is_environ_read(call):
            return True
        if callee is not None and callee in self.tainted_functions:
            return True
        args_tainted = any(
            self.expr_tainted(arg) for arg in call.args
        ) or any(
            self.expr_tainted(keyword.value) for keyword in call.keywords
        )
        receiver_tainted = self.expr_tainted(
            call.func.value
        ) if isinstance(call.func, ast.Attribute) else False
        return args_tainted or receiver_tainted

    # -- statements ---------------------------------------------------------

    def _bind(self, target: ast.AST, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tainted)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tainted)
        elif isinstance(target, ast.Attribute):
            if (
                tainted
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.class_name is not None
            ):
                cid = f"{self.module_name}.{self.class_name}"
                self.tainted_fields.setdefault(cid, set()).add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_calls(node.value)
        tainted = self.expr_tainted(node.value)
        if isinstance(node.value, ast.Call):
            _, external, _ = _call_target(
                self.graph,
                self.module_name,
                self.class_name,
                self.fid,
                node.value,
            )
            if external is not None and external.startswith(
                HASH_CONSTRUCTOR_PREFIX
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.hash_objects.add(target.id)
        for target in node.targets:
            self._bind(target, tainted)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_calls(node.value)
            self._bind(node.target, self.expr_tainted(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_calls(node.value)
        if self.expr_tainted(node.value):
            self._bind(node.target, True)

    def visit_Return(self, node: ast.Return) -> None:
        self._check_calls(node.value)
        if self.expr_tainted(node.value):
            self.returns_tainted = True

    def visit_For(self, node: ast.For) -> None:
        self._check_calls(node.iter)
        self._bind(node.target, self.expr_tainted(node.iter))
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._check_calls(item.context_expr)
            if item.optional_vars is not None:
                self._bind(
                    item.optional_vars,
                    self.expr_tainted(item.context_expr),
                )
        for stmt in node.body:
            self.visit(stmt)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._check_calls(node.value)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested functions are analysed as their own scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- sink detection -----------------------------------------------------

    def _check_calls(self, node: Optional[ast.AST]) -> None:
        """Check every call expression under ``node`` against the sinks."""
        if node is None:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._check_sink(child)

    def _check_sink(self, call: ast.Call) -> None:
        if not self.emit:
            return
        callee, external, tail = _call_target(
            self.graph, self.module_name, self.class_name, self.fid, call
        )
        sink: Optional[str] = None
        if external is not None and external in SINK_CALLS:
            sink = external
        elif external is not None and external.startswith(
            HASH_CONSTRUCTOR_PREFIX
        ):
            # hashlib.sha256(payload) digests its argument directly.
            sink = external
        elif external is None and tail in SINK_TAILS:
            sink = f"<receiver>.{tail}"
        elif (
            external is None
            and tail in ("update", "hexdigest", "digest")
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self.hash_objects
        ):
            sink = f"hashlib digest .{tail}"
        elif callee is not None and (
            callee.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
            in SINK_PROJECT_NAMES
        ):
            sink = callee.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
        elif callee is None and external is None and (
            tail in SINK_PROJECT_NAMES
        ):
            sink = f"<receiver>.{tail}"
        if sink is None:
            return
        # Only the serialised payload matters: json.dump(obj, fh) sinks
        # obj, not the (legitimately env-dependent) destination handle.
        if call.args:
            args: List[ast.AST] = [call.args[0]]
        else:
            args = [kw.value for kw in call.keywords]
        if any(self.expr_tainted(arg) for arg in args):
            self.findings.append(
                self.analysis.finding(
                    path=self.module_path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        "nondeterministic value (wall clock, randomness, or "
                        f"environment) flows into {sink}; persisted outputs "
                        "and digests must be reproducible across runs"
                    ),
                )
            )


@register_analysis
class DeterminismTaintAnalysis(Analysis):
    """Nondeterministic values flowing into persisted outputs."""

    name = "determinism-taint"
    description = (
        "flow-sensitive taint from wall-clock/random/env sources into "
        "serialised payloads, digests, cache keys and persisted files"
    )

    #: Fixpoint iteration cap for interprocedural taint (call-graph depth).
    MAX_ROUNDS = 5

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        tainted_functions: Set[str] = set()
        tainted_fields: Dict[str, Set[str]] = {}

        for _ in range(self.MAX_ROUNDS):
            changed = False
            for fid, info in graph.functions.items():
                module = project.get(info.module)
                if module is None:
                    continue
                visitor = self._run(
                    graph,
                    info,
                    module.path,
                    tainted_functions,
                    tainted_fields,
                    emit=False,
                )
                if visitor.returns_tainted and fid not in tainted_functions:
                    tainted_functions.add(fid)
                    changed = True
            if not changed:
                break

        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            module = project.get(info.module)
            if module is None:
                continue
            visitor = self._run(
                graph,
                info,
                module.path,
                tainted_functions,
                tainted_fields,
                emit=True,
            )
            for finding in visitor.findings:
                yield finding

    def _run(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        module_path: str,
        tainted_functions: Set[str],
        tainted_fields: Dict[str, Set[str]],
        emit: bool,
    ) -> _FunctionTaint:
        visitor = _FunctionTaint(
            analysis=self,
            graph=graph,
            module_name=info.module,
            module_path=module_path,
            class_name=info.class_name,
            fid=info.fid,
            tainted_functions=tainted_functions,
            tainted_fields=tainted_fields,
            emit=False,
        )
        body = getattr(info.node, "body", [])
        for stmt in body:
            visitor.visit(stmt)
        if emit:
            visitor.emit = True
            visitor.findings = []
            for stmt in body:
                visitor.visit(stmt)
        return visitor
