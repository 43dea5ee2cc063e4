"""Trace export sinks: a streamed Chrome trace and a summary table.

* :class:`ChromeTraceWriter` — the Chrome trace-event JSON Array Format,
  loadable in ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev).
  Spans become complete (``"ph": "X"``) events with microsecond
  timestamps; instant events become ``"ph": "i"`` marks on the
  timeline. Each event is one append write, one per line; the format
  makes the closing ``]`` optional, so a killed run still leaves a
  loadable file.
* :func:`span_summary` — per-span-name wall-clock distribution, the
  totals of the numeric attributes that count work, and the last value
  of the settings, ids, rates and running counts: what the CLI's
  ``--metrics`` flag prints, the quickest answer to "where did the time
  go".

These sinks record this process's wall clock (and its forked workers').
The modeled hardware schedule in *simulated* time is drawn by
:meth:`repro.sim.Timeline.to_chrome_trace` instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from .trace import InstantEvent, Span, Tracer

__all__ = ["ChromeTraceWriter", "span_summary"]

_US = 1e6  # Chrome trace timestamps are in microseconds


class ChromeTraceWriter:
    """Streaming Chrome trace sink for :meth:`Tracer.attach_stream`.

    Opens ``path`` for appending and writes ``[`` plus the
    ``process_name`` metadata event, then each finished span/instant in
    one unbuffered ``write`` call. Nothing is buffered, so a killed run
    loses nothing finished, and forked workers that inherit the writer
    append their own events to the same file without tearing a line.
    :meth:`close` writes the closing ``]``. ``written`` counts every
    event in the file, metadata included (the tracer adds the events a
    worker wrote when it adopts them).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644
        )
        self.written = 0
        self._write("[", {
            "name": "process_name", "ph": "M", "pid": os.getpid(), "tid": 0,
            "args": {"name": "repro"},
        })

    def write_span(self, span: Span) -> None:
        """Append one finished span (called under the tracer's lock)."""
        self._write(",\n", {
            "name": span.name, "cat": "repro", "ph": "X",
            "ts": span.start * _US, "dur": span.duration * _US,
            "pid": span.pid, "tid": span.thread_id,
            "args": _jsonable(span.attrs),
        })

    def write_instant(self, event: InstantEvent) -> None:
        """Append one instant event (called under the tracer's lock)."""
        self._write(",\n", {
            "name": event.name, "cat": "repro", "ph": "i",
            "ts": event.ts * _US, "pid": event.pid, "tid": event.thread_id,
            "s": "t", "args": _jsonable(event.attrs),
        })

    def _write(self, separator: str, event: Dict[str, Any]) -> None:
        os.write(self._fd, (separator + json.dumps(event)).encode())
        self.written += 1

    def close(self) -> None:
        """Write the closing ``]`` and close the file (idempotent)."""
        if self._fd is None:
            return
        os.write(self._fd, b"]\n")
        os.close(self._fd)
        self._fd = None


# Attributes that mean nothing summed: settings, ids, rates and running
# counts (every attribute of the dse.progress heartbeat is one of these).
_LAST_VALUES = frozenset({
    "seed", "workers", "budget", "shards", "samples", "active_workers",
    "shard", "completed_shards", "total_shards", "points_per_sec",
})


def span_summary(tracer: Tracer) -> str:
    """The tracer's events as human-readable tables (CLI ``--metrics``).

    One row per span name — count, total, mean, p50, p95 and max wall
    time, percentiles exact — then, per ``<event name>.<attribute>``, the
    totals of what events counted (``explore.valid``,
    ``dse.shard.done.estimated``), then the last value of the
    :data:`_LAST_VALUES` and of ``dse.progress`` (``dse.progress.points``).
    """
    lines = [_rule("spans")]
    rows = tracer.summary_rows()
    if not rows:
        lines.append("(no spans recorded)")
    else:
        lines.append(
            f"{'span':28s} {'count':>8s} {'total':>10s} {'mean':>10s} "
            f"{'p50':>10s} {'p95':>10s} {'max':>10s}"
        )
        for name, s in rows:
            lines.append(
                f"{name:28s} {s['count']:8,d} {_fmt(s['total'])} "
                f"{_fmt(s['mean'])} {_fmt(s['p50'])} {_fmt(s['p95'])} "
                f"{_fmt(s['max'])}"
            )
    totals, last = {}, {}  # type: Dict[str, Any], Dict[str, Any]
    for event in tracer.spans + tracer.instants:
        for attr, value in event.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                key = f"{event.name}.{attr}"
                if attr in _LAST_VALUES or event.name == "dse.progress":
                    last[key] = value
                else:
                    totals[key] = totals.get(key, 0) + value
    for title, values in (("attribute totals", totals), ("last values", last)):
        if values:
            lines.append(_rule(title))
            for key, n in sorted(values.items()):
                text = f"{n:,}" if isinstance(n, int) else f"{n:,.3f}"
                lines.append(f"{key:48s} {text:>18s}")
    return "\n".join(lines)


def _rule(title: str) -> str:
    return f"-- {title} " + "-" * max(1, 58 - len(title))


def _fmt(seconds: float) -> str:
    """Render a (usually sub-second) duration with an adaptive unit."""
    if seconds == 0:
        return f"{'0':>10s}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:>8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:>8.2f}ms"
    return f"{seconds:>9.3f}s"


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe types (repr as a last resort)."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = {str(k): _scalar(v) for k, v in value.items()}
        elif isinstance(value, (list, tuple)):
            out[key] = [_scalar(v) for v in value]
        else:
            out[key] = repr(value)
    return out


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
