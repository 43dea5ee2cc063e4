"""Observability layer: one span record for the whole pipeline.

The paper's evaluation leans on estimation being "millions of times
faster than synthesis" (Table IV) — fast enough to drive DSE over
~75k-point spaces. This package makes that time visible end to end:

* a span-based :class:`~repro.obs.trace.Tracer` (``with`` spans carrying
  attributes, plus instant events; thread-safe, and forked sweep
  workers record into it like the parent does),
* sinks (:mod:`repro.obs.sinks`): a Chrome trace-event file for
  Perfetto/``chrome://tracing``, streamed as events finish, and the
  summary table ``--metrics`` prints (per-name count, total, mean,
  exact p50/p95, max, and numeric attribute totals).

Every fact is recorded once, on the span or instant that describes its
event: a pass's time is its span's duration, a sweep's point counts are
attributes of its ``explore`` span.

All of it measures this process's wall clock. The simulated hardware
schedule (``repro speedup --sim-trace``) comes from
:func:`repro.sim.build_timeline`, with the tracer off.

The tracer is **disabled by default** and global to the process:
instrumented code calls the module-level helpers (``obs.span(...)``,
``obs.instant(...)``) which delegate to the shared instance, adding one
flag check when observability is off. The CLI's ``--trace FILE`` /
``--metrics`` flags (and :func:`repro.report.build_report`) turn it on
around a command. See ``docs/observability.md``.

Dependency-free by design: only stdlib, imported by every pipeline layer
(estimation, DSE, sim, codegen) without creating cycles.
"""

from __future__ import annotations

from typing import Any, Optional

from .sinks import ChromeTraceWriter, span_summary
from .trace import NULL_SPAN, InstantEvent, Span, Tracer, describe, percentile

__all__ = [
    "ChromeTraceWriter",
    "InstantEvent",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "describe",
    "disable",
    "enable",
    "instant",
    "percentile",
    "reset",
    "span",
    "span_summary",
    "stop_trace",
    "stream_trace",
    "trace_enabled",
    "tracer",
]

_TRACER = Tracer(enabled=False)


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def enable(*, trace: Optional[bool] = None,
           metrics: Optional[bool] = None) -> None:
    """Turn span recording on (or off).

    ``trace`` and ``metrics`` are the two reasons to record — a trace
    file and the ``--metrics`` summary both read the same spans. Either
    one true turns recording on, ``enable()`` with neither turns it on,
    and only false values turn it off.
    """
    _TRACER.enabled = (trace is None and metrics is None) or bool(
        trace or metrics
    )


def disable() -> None:
    """Stop recording (recorded events are kept until reset)."""
    _TRACER.enabled = False


def reset() -> None:
    """Drop all recorded spans and instants."""
    _TRACER.reset()


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


# -- recording shortcuts (what instrumented code calls) ---------------------


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (no-op singleton when disabled)."""
    return _TRACER.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record an instant event on the global tracer."""
    _TRACER.instant(name, **attrs)
