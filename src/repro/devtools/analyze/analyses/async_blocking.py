"""Async-blocking detection: no synchronous stalls on the serve path.

The asyncio serve tier multiplexes every client on one event loop; a
single blocking call anywhere on a coroutine's call path stalls *all*
sessions, which is both a throughput cliff and — for the paper's
purposes — a perturbation of the measurements the service exists to
keep clean.

This analysis walks the project call graph from every ``async def``
defined in a serve package and flags blocking primitives
(``time.sleep``, ``subprocess``, synchronous file/socket I/O) reachable
through any chain of project-internal calls, not just those written
directly inside the coroutine.  Awaited async callees are traversed
too: a blocking call inside an awaited coroutine blocks the same loop.

Handing work to an executor (``loop.run_in_executor(None, fn)``) passes
``fn`` as a value, not a call, so that legitimate escape hatch creates
no edge and is never flagged.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyze.callgraph import CallSite
from repro.devtools.analyze.engine import Analysis, Finding, register_analysis
from repro.devtools.analyze.project import Project

#: Exact dotted calls that block the event loop.
BLOCKING_CALLS: Tuple[str, ...] = (
    "time.sleep",
    "os.system",
    "os.popen",
    "os.waitpid",
    "os.wait",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "select.select",
)

#: Dotted prefixes whose every call blocks (process spawning, sync HTTP).
BLOCKING_PREFIXES: Tuple[str, ...] = (
    "subprocess.",
    "requests.",
    "http.client.",
)

#: Bare-name builtins that block on file or terminal I/O.
BLOCKING_NAMES: Tuple[str, ...] = ("open", "input")

#: Method tails that perform synchronous file I/O on any receiver.
BLOCKING_TAILS: Tuple[str, ...] = (
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
)

#: Package directory names whose ``async def`` functions are roots.
ASYNC_ROOT_PACKAGES: Tuple[str, ...] = ("serve",)


def classify_blocking(site: CallSite) -> Optional[str]:
    """The blocking primitive a call site invokes, or ``None``."""
    if site.callee is not None:
        return None  # resolved project-internal call: traversed, not flagged
    if site.external is not None:
        if site.external in BLOCKING_CALLS:
            return site.external
        for prefix in BLOCKING_PREFIXES:
            if site.external.startswith(prefix):
                return site.external
        if site.external in BLOCKING_NAMES:
            return site.external
        # from-imported primitive called by bare name: "sleep" etc.
        for dotted in BLOCKING_CALLS:
            if site.external == dotted:
                return dotted
    if site.external is None and site.tail in BLOCKING_TAILS:
        return f"<receiver>.{site.tail}"
    return None


@register_analysis
class AsyncBlockingAnalysis(Analysis):
    """Blocking calls reachable from ``async def`` serve handlers."""

    name = "async-blocking"
    description = (
        "no blocking primitive (time.sleep, subprocess, sync file/socket "
        "I/O) may be reachable from an async def in the serve tier"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        roots = [
            info
            for info in graph.async_functions()
            if any(
                part in ASYNC_ROOT_PACKAGES
                for part in info.module.split(".")
            )
        ]
        if not roots:
            return

        # Blocking sites grouped by enclosing function.
        blocking_in: Dict[str, List[Tuple[CallSite, str]]] = {}
        for fid, sites in graph.calls_from.items():
            for site in sites:
                primitive = classify_blocking(site)
                if primitive is not None:
                    blocking_in.setdefault(fid, []).append((site, primitive))

        # BFS from every async root; keep one shortest chain per function.
        chain_to: Dict[str, Tuple[str, ...]] = {}
        queue: "deque[str]" = deque()
        for root in roots:
            if root.fid not in chain_to:
                chain_to[root.fid] = (root.fid,)
                queue.append(root.fid)
        while queue:
            fid = queue.popleft()
            for site in graph.calls_from.get(fid, ()):
                callee = site.callee
                if callee is None or callee in chain_to:
                    continue
                chain_to[callee] = chain_to[fid] + (callee,)
                queue.append(callee)

        seen: Set[Tuple[str, int, int]] = set()
        for fid in sorted(chain_to):
            for site, primitive in blocking_in.get(fid, ()):
                info = graph.functions[fid]
                module = project.get(info.module)
                if module is None:
                    continue
                key = (module.path, site.line, site.col)
                if key in seen:
                    continue
                seen.add(key)
                chain = " -> ".join(
                    self._pretty(project, step) for step in chain_to[fid]
                )
                yield self.finding(
                    path=module.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"blocking call {primitive}() is reachable from an "
                        f"async serve handler (call chain: {chain}); it "
                        "stalls the event loop for every connected client"
                    ),
                )

    @staticmethod
    def _pretty(project: Project, fid: str) -> str:
        module, _, qualname = fid.partition(":")
        short = module.split(".")[-1]
        return f"{short}.{qualname}"
