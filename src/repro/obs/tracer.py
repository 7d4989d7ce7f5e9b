"""Trace collectors: a no-op default and a bounded ring buffer.

The hot path (the PMI handler, the GPHT lookup) is instrumented with
the pattern::

    if tracer.enabled:
        tracer.emit(SomeEvent(...))

so a disabled run pays exactly one attribute load per site and builds
no event objects.  ``NULL_TRACER`` is the shared disabled singleton;
callers that want a trace substitute a :class:`RingBufferTracer`.

Collectors are deterministic by construction: they never read clocks or
randomness (enforced by ``repro analyze``'s determinism rule, which covers
the ``repro.obs`` package), and recording must never change a simulated
result — the tracing-determinism property tests hold the whole pipeline
to that.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent

#: Default ring capacity: ~64k events covers >13k traced intervals at
#: the typical 4-5 events per interval.
DEFAULT_CAPACITY = 1 << 16


class Tracer:
    """Collector interface.  The base class is the disabled no-op."""

    #: Hot-path guard — sites skip event construction when ``False``.
    enabled: bool = False

    @property
    def interval(self) -> int:
        """Current interval index, ``-1`` before any ``begin_interval``."""
        return -1

    def begin_interval(self, index: int) -> None:
        """Mark the start of interval ``index`` (monotonic sync point)."""

    def emit(self, event: TraceEvent) -> None:
        """Record ``event``; the no-op base discards it."""


class NullTracer(Tracer):
    """Explicitly-named disabled tracer (identical to the base class)."""


#: Shared disabled singleton — the default everywhere a tracer is optional.
NULL_TRACER = NullTracer()


class RingBufferTracer(Tracer):
    """Bounded in-memory collector: keeps the most recent events.

    The buffer is a ``deque(maxlen=capacity)`` so a long run degrades to
    "last *capacity* events" instead of unbounded memory; :attr:`dropped`
    reports how many events fell off the front.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"tracer capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        self._emitted = 0
        self._interval = -1

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def interval(self) -> int:
        return self._interval

    @property
    def emitted(self) -> int:
        """Total events emitted, including any since dropped."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound (oldest first)."""
        return self._emitted - len(self._buffer)

    def begin_interval(self, index: int) -> None:
        # Indexes are monotone within one run but restart at 0 when the
        # same tracer records several runs back to back, so no
        # monotonicity is enforced here — only validity.
        if index < 0:
            raise ConfigurationError(
                f"interval index must be >= 0, got {index}"
            )
        self._interval = index

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)
        self._emitted += 1

    def events(self) -> Tuple[TraceEvent, ...]:
        """Snapshot of the retained events, oldest first."""
        return tuple(self._buffer)

    def counts_by_type(self) -> Dict[str, int]:
        """Retained-event histogram keyed by ``event_type``."""
        counts: Counter[str] = Counter(
            event.event_type for event in self._buffer
        )
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        """Drop all retained events and reset counters and the interval."""
        self._buffer.clear()
        self._emitted = 0
        self._interval = -1

    def __len__(self) -> int:
        return len(self._buffer)
