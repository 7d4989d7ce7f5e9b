"""In-memory spans recorded by wrappers around the program's entry points.

The wrappers live here, in the benchmark's own files: :func:`installed`
patches each public entry point for the duration of a traced replay and
restores the original afterwards.  A span records its name, start, end,
parent span and request id; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the part of
it covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Records a per-span size (samples in a batch call) from the arguments.
SizeOf = Callable[[Tuple[Any, ...]], int]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr``, recorded as ``name``."""

    owner: Any
    attr: str
    name: str
    size: Optional[SizeOf] = None
    keep_args: bool = False
    keep_result: bool = False


class Spans:
    """Parallel arrays of spans, appended by the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.sizes: List[int] = []
        self.args: Dict[int, Tuple[Any, ...]] = {}
        self.results: Dict[int, Any] = {}
        self.request = 0
        self._stack: List[int] = []

    def wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, sizes = self.parents, self.requests, self.sizes
        stack, kept_args, kept_results = self._stack, self.args, self.results
        name, size = target.name, target.size
        keep_args, keep_result = target.keep_args, target.keep_result
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            sizes.append(size(args) if size is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            if keep_args:
                kept_args[index] = args
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if keep_result:
                kept_results[index] = result
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.sizes.append(0)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    # -- analysis -------------------------------------------------------------

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        durations = self.durations()
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        return [duration - cover for duration, cover in zip(durations, covered)]

    def has_ancestor(self, index: int, names: Sequence[str]) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] in names:
                return True
            parent = self.parents[parent]
        return False

    def summary(self) -> Dict[str, "Layer"]:
        """Per span name: calls, total duration, total self time, size."""
        durations = self.durations()
        selves = self.self_times()
        layers: Dict[str, Layer] = defaultdict(Layer)
        for index, name in enumerate(self.names):
            layer = layers[name]
            layer.calls += 1
            layer.total += durations[index]
            layer.self_total += selves[index]
            layer.size += self.sizes[index]
        return dict(layers)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        [name, self.starts[index], self.ends[index],
                         self.parents[index], self.requests[index]]
                    )
                    + "\n"
                )


@dataclass
class Layer:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    size: int = 0

    def mean_us(self) -> float:
        return self.total / self.calls * 1e6 if self.calls else 0.0


@contextmanager
def installed(spans: Spans, targets: Sequence[Target]) -> Iterator[None]:
    """Patch every target with a span-recording wrapper, then restore it."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner = target.owner
            if isinstance(owner, type):
                original = owner.__dict__[target.attr]
                if isinstance(original, classmethod):
                    patched: Any = classmethod(spans.wrap(target, original.__func__))
                else:
                    patched = spans.wrap(target, original)
            else:
                original = getattr(owner, target.attr)
                patched = spans.wrap(target, original)
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, patched)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
