"""Observability layer: tracing and metrics for the whole pipeline.

The paper's evaluation leans on estimation being "millions of times
faster than synthesis" (Table IV) — fast enough to drive DSE over
~75k-point spaces. This package makes that time visible end to end:

* a span-based :class:`~repro.obs.trace.Tracer` (nested ``with`` spans
  with attributes, thread-safe),
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms with exact p50/p95/max),
* sinks (:mod:`repro.obs.sinks`): a Chrome trace-event file for
  Perfetto/``chrome://tracing``, streamed as events finish, and
  human-readable summary tables.

All of it measures this process's wall clock. The simulated hardware
schedule (``repro speedup --sim-trace``) comes from
:func:`repro.sim.build_timeline`, with the tracer off.

Both collectors are **disabled by default** and global to the process:
instrumented code calls the module-level helpers (``obs.span(...)``,
``obs.counter(...)``) which delegate to the shared instances, adding one
flag check when observability is off. The CLI's ``--trace FILE`` /
``--metrics`` flags (and :func:`repro.report.build_report`) flip them on
around a command. See ``docs/observability.md``.

Dependency-free by design: only stdlib, imported by every pipeline layer
(estimation, DSE, sim, codegen) without creating cycles.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import ChromeTraceWriter, span_summary
from .trace import NULL_SPAN, InstantEvent, Span, Tracer

__all__ = [
    "ChromeTraceWriter",
    "Counter",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "instant",
    "metrics",
    "metrics_enabled",
    "reset",
    "span",
    "span_summary",
    "stop_trace",
    "stream_trace",
    "timed",
    "trace_enabled",
    "tracer",
]

_TRACER = Tracer(enabled=False)
_METRICS = MetricsRegistry(enabled=False)


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _METRICS


def enable(*, trace: Optional[bool] = None, metrics: Optional[bool] = None) -> None:
    """Turn collectors on/off; ``None`` leaves a collector unchanged.

    ``enable()`` with no arguments turns both on.
    """
    if trace is None and metrics is None:
        trace = metrics = True
    if trace is not None:
        _TRACER.enabled = trace
    if metrics is not None:
        _METRICS.enabled = metrics


def disable() -> None:
    """Turn both collectors off (recorded data is kept until reset)."""
    _TRACER.enabled = False
    _METRICS.enabled = False


def reset() -> None:
    """Drop all recorded spans, instants, and metrics."""
    _TRACER.reset()
    _METRICS.reset()


def trace_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return _TRACER.enabled


def stream_trace(path) -> ChromeTraceWriter:
    """Stream the global tracer's events to a Chrome trace file at ``path``.

    Attaches a :class:`ChromeTraceWriter`, so a killed run still leaves
    every span finished so far on disk. Returns the writer; call
    :func:`stop_trace` when done.
    """
    writer = ChromeTraceWriter(path)
    _TRACER.attach_stream(writer)
    return writer


def stop_trace() -> None:
    """Detach and close the tracer's trace file, if any."""
    stream = _TRACER.detach_stream()
    if stream is not None:
        stream.close()


def metrics_enabled() -> bool:
    """Whether the global metrics registry is currently recording."""
    return _METRICS.enabled


# -- recording shortcuts (what instrumented code calls) ---------------------


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (no-op singleton when disabled)."""
    return _TRACER.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record an instant event on the global tracer."""
    _TRACER.instant(name, **attrs)


def counter(name: str):
    """Fetch/create a counter (shared no-op when metrics are disabled)."""
    return _METRICS.counter(name)


def gauge(name: str):
    """Fetch/create a gauge (shared no-op when metrics are disabled)."""
    return _METRICS.gauge(name)


def histogram(name: str):
    """Fetch/create a histogram (shared no-op when metrics are disabled)."""
    return _METRICS.histogram(name)


class _Timed:
    """Span + histogram in one ``with`` block (both optional)."""

    __slots__ = ("_span_name", "_hist_name", "_attrs", "_ctx", "_start")

    def __init__(self, span_name: str, hist_name: str, attrs) -> None:
        self._span_name = span_name
        self._hist_name = hist_name
        self._attrs = attrs
        self._ctx = None
        self._start = 0.0

    def __enter__(self):
        if _TRACER.enabled:
            self._ctx = _TRACER.span(self._span_name, **self._attrs)
            span = self._ctx.__enter__()
        else:
            span = NULL_SPAN
        if _METRICS.enabled:
            self._start = time.perf_counter()
        return span

    def __exit__(self, *exc) -> None:
        if _METRICS.enabled:
            _METRICS.histogram(self._hist_name).observe(
                time.perf_counter() - self._start
            )
        if self._ctx is not None:
            self._ctx.__exit__(*exc)


def timed(span_name: str, hist_name: str, **attrs: Any):
    """Time a block into both a span and a latency histogram.

    Used by the estimation passes so Table IV decomposes into
    cycle-model vs area-model vs NN time whether the user asked for a
    trace, metrics, or both. Near-free when both collectors are off.
    """
    if not (_TRACER.enabled or _METRICS.enabled):
        return NULL_SPAN
    return _Timed(span_name, hist_name, attrs)
