"""Span-based tracer: where does a DSE→estimation→sim run spend its time?

The paper's Table IV argues estimation is fast enough to drive design
space exploration over ~75k-point spaces; this tracer makes that claim
inspectable. Instrumented code opens :meth:`Tracer.span` context managers
("estimate", "cycles", "area", ...); a span opened inside another lies
inside it in time on the same process and thread, so one explore run
decomposes into per-block pricing spans and each per-design estimate
into its cycle-model / area-model / NN passes. Finished spans carry
wall-clock start/end times (relative to the tracer's epoch), free-form
attributes, and the recording process and thread, and can be exported
through :mod:`repro.obs.sinks` (Chrome trace-event file, summary table).

The tracer is disabled by default and designed so that instrumentation
left in hot paths costs almost nothing when off: ``span()`` checks one
flag and returns a shared no-op singleton — no allocation, no clock read,
no locking.

:meth:`Tracer.attach_stream` forwards every finished span/instant to an
incremental writer (see :class:`repro.obs.sinks.ChromeTraceWriter`), so
a killed run still leaves a partial trace on disk. The tracer also keeps
every event in memory for the summaries and :meth:`Tracer.find`. A
forked worker inherits the tracer, its epoch and its stream: it records
and streams like the parent, hands its events over with :meth:`drain`,
and the parent files them with :meth:`adopt`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["Span", "InstantEvent", "Tracer", "NULL_SPAN", "describe",
           "percentile"]


class Span:
    """One finished (or in-flight) traced operation.

    ``start``/``end`` are seconds since the tracer's epoch; ``pid`` and
    ``thread_id`` name the recording process and thread.
    """

    __slots__ = ("name", "pid", "thread_id", "start", "end", "attrs")

    def __init__(self, name: str, pid: int, thread_id: int, start: float,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.pid = pid
        self.thread_id = thread_id
        self.start = start
        self.end = 0.0
        self.attrs = attrs

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
    pid: int
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
        self._epoch = time.perf_counter()
        self._thread_ids: Dict[int, int] = {}
        self._stream = None
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []

    # -- streaming ---------------------------------------------------------

    def attach_stream(self, stream) -> None:
        """Forward every finished span/instant to ``stream`` as recorded.

        ``stream`` needs ``write_span(span)`` and ``write_instant(event)``
        methods and a ``written`` count (see
        :class:`repro.obs.sinks.ChromeTraceWriter`).
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
            thread_id = self._thread_index()
        span = Span(name, os.getpid(), thread_id,
                    time.perf_counter() - self._epoch, attrs)
        return _SpanContext(self, span)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event (no duration)."""
        if not self.enabled:
            return
        with self._lock:
            event = InstantEvent(
                name=name,
                pid=os.getpid(),
                thread_id=self._thread_index(),
                ts=time.perf_counter() - self._epoch,
                attrs=attrs,
            )
            if self._stream is not None:
                self._stream.write_instant(event)
            self.instants.append(event)

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter() - self._epoch
        with self._lock:
            if self._stream is not None:
                self._stream.write_span(span)
            self.spans.append(span)

    # -- handing events between processes ----------------------------------

    def drain(self) -> Tuple[List[Span], List[InstantEvent]]:
        """Remove and return every recorded span and instant."""
        with self._lock:
            taken = (self.spans, self.instants)
            self.spans, self.instants = [], []
        return taken

    def adopt(self, spans: Sequence[Span],
              instants: Sequence[InstantEvent]) -> None:
        """Keep events a forked worker recorded (and streamed) in memory.

        They are not written again: the worker's inherited stream already
        wrote each one, so only the stream's count grows.
        """
        with self._lock:
            self.spans += spans
            self.instants += instants
            if self._stream is not None:
                self._stream.written += len(spans) + len(instants)

    # -- bookkeeping -------------------------------------------------------

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
            self._epoch = time.perf_counter()

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name, in completion order."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def by_name(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by name."""
        out: Dict[str, List[Span]] = {}
        with self._lock:
            for span in self.spans:
                out.setdefault(span.name, []).append(span)
        return out

    def summary_rows(self) -> List[Tuple[str, Dict[str, float]]]:
        """Per-name duration summary: ``(name, describe(durations))``."""
        return [
            (name, describe([s.duration for s in spans]))
            for name, spans in sorted(self.by_name().items())
        ]


def percentile(ordered: Sequence[float], p: float) -> float:
    """Exact ``p``-th percentile of sorted ``ordered`` (0.0 when empty).

    Linear interpolation between the two closest ranks.
    """
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    low, high = ordered[lo], ordered[hi]
    if frac == 0.0:
        return low
    # low + (high - low) * frac is exact for equal neighbours and
    # monotone in p; the clamp keeps rounding (or an overflowing
    # high - low) inside [low, high].
    return min(max(low + (high - low) * frac, low), high)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """count / total / mean / p50 / p95 / max of ``values`` in one dict."""
    ordered = sorted(values)
    total = sum(ordered)
    return {
        "count": len(ordered),
        "total": total,
        "mean": total / len(ordered) if ordered else 0.0,
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "max": ordered[-1] if ordered else 0.0,
    }
