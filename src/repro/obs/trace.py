"""Span-based tracer: where does a DSE→estimation→sim run spend its time?

The paper's Table IV argues estimation is fast enough to drive design
space exploration over ~75k-point spaces; this tracer makes that claim
inspectable. Instrumented code opens :meth:`Tracer.span` context managers
("estimate", "cycles", "area", ...); nested ``with`` blocks become
parent/child spans, so one explore run decomposes into per-point
estimates and each estimate into its cycle-model / area-model / NN
passes. Finished spans carry wall-clock start/end times (relative to the
tracer's epoch), free-form attributes, and the recording thread, and can
be exported through :mod:`repro.obs.sinks` (JSONL, Chrome trace-event,
summary table).

The tracer is disabled by default and designed so that instrumentation
left in hot paths costs almost nothing when off: ``span()`` checks one
flag and returns a shared no-op singleton — no allocation, no clock read,
no locking.

:meth:`Tracer.attach_stream` forwards every finished span/instant to an
incremental writer (see :class:`repro.obs.sinks.JsonlStreamWriter`), so
a killed run still leaves a partial trace on disk.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "InstantEvent", "Tracer", "NULL_SPAN"]


@dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    span_id: int
    parent_id: Optional[int]
    thread_id: int
    start: float  # seconds since the tracer's epoch
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return max(self.end - self.start, 0.0)

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open (or after)."""
        self.attrs.update(attrs)


@dataclass
class InstantEvent:
    """A point-in-time event (e.g. periodic DSE progress)."""

    name: str
    thread_id: int
    ts: float  # seconds since the tracer's epoch
    attrs: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer.

    Stateless and reentrant: the same singleton can be "entered" from any
    number of threads and nesting depths simultaneously.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager recording one span on ``__exit__``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._finish(self._span)


class Tracer:
    """Thread-safe collector of spans and instant events.

    All timestamps are ``time.perf_counter()`` readings relative to the
    tracer's creation (or last :meth:`reset`), so exported traces start
    near zero.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._thread_ids: Dict[int, int] = {}
        self._stream = None
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []

    # -- streaming ---------------------------------------------------------

    def attach_stream(self, stream) -> None:
        """Forward every finished span/instant to ``stream`` as recorded.

        ``stream`` needs ``write_span(span)`` and ``write_instant(event)``
        methods (see :class:`repro.obs.sinks.JsonlStreamWriter`).
        """
        with self._lock:
            self._stream = stream

    def detach_stream(self):
        """Stop forwarding events; returns the previously attached stream."""
        with self._lock:
            stream, self._stream = self._stream, None
        return stream

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span; use as ``with tracer.span("estimate", bench=...):``.

        Returns the shared no-op singleton when the tracer is disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            thread_id = self._thread_index()
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=self._stack()[-1] if self._stack() else None,
            thread_id=thread_id,
            start=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        self._stack().append(span.span_id)
        return _SpanContext(self, span)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event (no duration)."""
        if not self.enabled:
            return
        with self._lock:
            event = InstantEvent(
                name=name,
                thread_id=self._thread_index(),
                ts=time.perf_counter() - self._epoch,
                attrs=dict(attrs),
            )
            if self._stream is not None:
                self._stream.write_instant(event)
            self.instants.append(event)

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter() - self._epoch
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:  # pragma: no cover - misnested exit
            stack.remove(span.span_id)
        with self._lock:
            if self._stream is not None:
                self._stream.write_span(span)
            self.spans.append(span)

    # -- bookkeeping -------------------------------------------------------

    def _stack(self) -> List[int]:
        """Per-thread stack of open span ids (parent tracking)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_index(self) -> int:
        """Small stable integer per OS thread (Chrome-trace ``tid``)."""
        ident = threading.get_ident()
        idx = self._thread_ids.get(ident)
        if idx is None:
            idx = self._thread_ids[ident] = len(self._thread_ids) + 1
        return idx

    def reset(self) -> None:
        """Drop all recorded events and restart the clock epoch."""
        with self._lock:
            self.spans.clear()
            self.instants.clear()
            self._thread_ids.clear()
            self._next_id = 1
            self._epoch = time.perf_counter()

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name, in completion order."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span`` among finished spans."""
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.span_id]

    def by_name(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by name."""
        out: Dict[str, List[Span]] = {}
        with self._lock:
            for span in self.spans:
                out.setdefault(span.name, []).append(span)
        return out

    def summary_rows(self) -> List[Tuple[str, int, float, float, float]]:
        """Per-name aggregate: (name, count, total_s, mean_s, max_s)."""
        rows = []
        for name, spans in sorted(self.by_name().items()):
            durs = [s.duration for s in spans]
            total = sum(durs)
            rows.append(
                (name, len(durs), total, total / len(durs), max(durs))
            )
        return rows
