"""Layering conformance: the import DAG the architecture promises.

The repo is layered so the measurement substrate stays deployable
without the serving stack, and the analysis/serving layers can evolve
without destabilising the simulator kernel:

* substrate — ``errors``, ``numerics``, ``pmc``, ``cpu``, ``power``,
  ``obs`` (tracing/metrics, importable from everywhere);
* kernel — ``core`` (phase detection, predictors, governors),
  ``workloads``, ``system``;
* offline — ``exec`` (experiment harness), then ``analysis``
  (post-processing and sweep orchestration, which may drive ``exec``);
* online — ``serve`` (the streaming service);
* tooling — ``cli``, ``devtools``.

Two deliberate deviations from a strict rank ordering are encoded
rather than suppressed, because working code defines the contract:
``obs`` sits *below* ``core`` (predictors emit trace events), so it is
``obs`` that must never import the kernel at module scope; and
``core`` may use ``analysis`` for offline statistics
(``predictors/duration.py``), while ``analysis`` must never reach into
the online or tooling layers.

Checks:

1. **forbidden imports** — each package's deny-list below, enforced on
   every import (deferred ones included, except where noted);
2. **module-scope discipline for obs** — ``obs`` may use ``analysis``
   and ``core`` helpers lazily inside functions but never at import
   time (its package docstring states this contract);
3. **devtools self-containment** — the analyzer may import only itself
   and ``errors``, so it can analyze a broken tree without importing it;
4. **no module-level import cycles** — strongly connected components
   over the module-scope import graph.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import ImportEdge, Project, ProjectModule

#: Recognised layer (package) names, for locating a module's layer.
KNOWN_LAYERS: Tuple[str, ...] = (
    "analysis",
    "cli",
    "core",
    "cpu",
    "devtools",
    "errors",
    "exec",
    "learn",
    "numerics",
    "obs",
    "pmc",
    "power",
    "serve",
    "system",
    "workloads",
)

#: Packages a given layer may never import, at any scope.
FORBIDDEN_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "core": ("serve", "exec", "cli", "devtools", "system"),
    "pmc": ("serve", "exec", "cli", "devtools", "core", "obs", "analysis"),
    "power": ("serve", "exec", "cli", "devtools", "core", "analysis"),
    "cpu": ("serve", "exec", "cli", "devtools", "core"),
    "workloads": ("serve", "exec", "cli", "devtools"),
    "obs": ("serve", "exec", "cli", "devtools", "system"),
    "system": ("serve", "cli", "devtools"),
    "analysis": ("serve", "cli", "devtools"),
    "exec": ("serve", "cli", "devtools"),
    "learn": ("serve", "cli", "devtools"),
    "serve": ("cli", "devtools", "system"),
}

#: Packages a layer may import only lazily (inside a function body).
DEFERRED_ONLY_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "obs": ("core", "analysis"),
}

#: Layers devtools modules may import from (self-containment rule 3).
DEVTOOLS_ALLOWED: Tuple[str, ...] = ("devtools", "errors")


def layer_of(parts: Tuple[str, ...]) -> Optional[str]:
    """The first recognised layer name in a dotted-name's components."""
    for part in parts:
        if part in KNOWN_LAYERS:
            return part
    return None


def _target_layer(project: Project, target: str) -> Optional[str]:
    """The layer an import target belongs to, if it is project-internal."""
    if not project.is_internal(target):
        return None
    return layer_of(tuple(target.split(".")))


@register_analysis
class LayeringAnalysis(Analysis):
    """Imports that violate the architecture's layering contract."""

    name = "layering"
    description = (
        "enforce the import DAG: measurement substrate below the kernel, "
        "kernel below offline/online layers, tooling self-contained, and "
        "no module-scope import cycles"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            yield from self._check_module(project, module)
        yield from self._check_cycles(project)

    def _check_module(
        self, project: Project, module: ProjectModule
    ) -> Iterator[Finding]:
        source_layer = layer_of(module.parts)
        if source_layer is None:
            return
        forbidden = FORBIDDEN_IMPORTS.get(source_layer, ())
        deferred_only = DEFERRED_ONLY_IMPORTS.get(source_layer, ())
        for edge in module.imports:
            target_layer = _target_layer(project, edge.target)
            if target_layer is None or target_layer == source_layer:
                continue
            if source_layer == "devtools":
                if target_layer not in DEVTOOLS_ALLOWED:
                    yield self.finding(
                        path=module.path,
                        line=edge.line,
                        col=0,
                        message=(
                            f"devtools must stay self-contained (only "
                            f"devtools and errors) so it can analyse a "
                            f"broken tree, but imports "
                            f"{edge.target!r} ({target_layer})"
                        ),
                    )
                continue
            if target_layer in forbidden:
                scope = "lazily" if edge.deferred else "at module scope"
                yield self.finding(
                    path=module.path,
                    line=edge.line,
                    col=0,
                    message=(
                        f"layer {source_layer!r} must not import layer "
                        f"{target_layer!r} ({edge.target!r}, imported "
                        f"{scope}): it breaks the substrate-below-kernel-"
                        "below-serving DAG"
                    ),
                )
            elif target_layer in deferred_only and not edge.deferred:
                yield self.finding(
                    path=module.path,
                    line=edge.line,
                    col=0,
                    message=(
                        f"layer {source_layer!r} may use "
                        f"{target_layer!r} only via deferred (in-function) "
                        f"imports, but imports {edge.target!r} at module "
                        "scope"
                    ),
                )

    # -- cycle detection ----------------------------------------------------

    def _check_cycles(self, project: Project) -> Iterator[Finding]:
        """Tarjan SCCs over the module-scope import graph."""
        graph: Dict[str, List[Tuple[str, ImportEdge]]] = {}
        for module in project.modules():
            edges: List[Tuple[str, ImportEdge]] = []
            for edge in module.imports:
                if edge.deferred:
                    continue
                target = self._resolve_module(project, edge)
                if target is not None and target != module.name:
                    edges.append((target, edge))
            graph[module.name] = edges

        index_counter = [0]
        stack: List[str] = []
        on_stack: Set[str] = set()
        indices: Dict[str, int] = {}
        lowlinks: Dict[str, int] = {}
        sccs: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion would overflow on deep chains.
            work: List[Tuple[str, int]] = [(node, 0)]
            while work:
                current, edge_index = work.pop()
                if edge_index == 0:
                    indices[current] = index_counter[0]
                    lowlinks[current] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                recurse = False
                edges = graph.get(current, [])
                for position in range(edge_index, len(edges)):
                    successor = edges[position][0]
                    if successor not in indices:
                        work.append((current, position + 1))
                        work.append((successor, 0))
                        recurse = True
                        break
                    if successor in on_stack:
                        lowlinks[current] = min(
                            lowlinks[current], indices[successor]
                        )
                if recurse:
                    continue
                if lowlinks[current] == indices[current]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(
                        lowlinks[parent], lowlinks[current]
                    )

        for name in sorted(graph):
            if name not in indices:
                strongconnect(name)

        for component in sccs:
            anchor_name = component[0]
            module = project.get(anchor_name)
            if module is None:
                continue
            anchor_line = 1
            for target, edge in graph.get(anchor_name, []):
                if target in component:
                    anchor_line = edge.line
                    break
            yield self.finding(
                path=module.path,
                line=anchor_line,
                col=0,
                message=(
                    "module-scope import cycle: "
                    + " <-> ".join(component)
                    + "; break it with a deferred import or an interface "
                    "module"
                ),
            )

    @staticmethod
    def _resolve_module(
        project: Project, edge: ImportEdge
    ) -> Optional[str]:
        """The project module an edge lands on (follow from-imports)."""
        if project.get(edge.target) is not None:
            return edge.target
        # "from pkg import name": pkg/__init__ or the submodule pkg.name.
        for name in edge.names:
            submodule = f"{edge.target}.{name}"
            if project.get(submodule) is not None:
                return submodule
        if project.is_internal(edge.target):
            # a package without an indexed __init__ (or filtered file)
            candidate = project.get(edge.target + ".__init__")
            if candidate is not None:
                return candidate.name
        return None
