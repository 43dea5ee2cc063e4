"""Trace export sinks: a streamed Chrome trace and a summary table.

* :class:`ChromeTraceWriter` — the Chrome trace-event JSON Array Format,
  loadable in ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev).
  Spans become complete (``"ph": "X"``) events with microsecond
  timestamps; instant events become ``"ph": "i"`` marks on the
  timeline. Each event is written and flushed as it finishes, one per
  line; the format makes the closing ``]`` optional, so a killed run
  still leaves a loadable file.
* :func:`span_summary` — per-span-name aggregate wall-clock table, the
  quickest answer to "where did the time go".

These sinks record this process's wall clock. The modeled hardware
schedule in *simulated* time is drawn by
:meth:`repro.sim.Timeline.to_chrome_trace` instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .metrics import _fmt
from .trace import InstantEvent, Span, Tracer

__all__ = ["ChromeTraceWriter", "span_summary"]

_US = 1e6  # Chrome trace timestamps are in microseconds


class ChromeTraceWriter:
    """Streaming Chrome trace sink for :meth:`Tracer.attach_stream`.

    Opens ``path`` and writes ``[`` plus the ``process_name`` metadata
    event, then one event per finished span/instant, flushed at once so
    a killed run (or a forked worker inheriting the handle) loses or
    duplicates nothing. :meth:`close` writes the closing ``]``.
    ``written`` counts every event in the file, metadata included.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._fh = open(path, "w")
        self._fh.write("[" + json.dumps({
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "repro"},
        }))
        self._fh.flush()
        self.written = 1

    def write_span(self, span: Span) -> None:
        """Append one finished span (called under the tracer's lock)."""
        self._write({
            "name": span.name, "cat": "repro", "ph": "X",
            "ts": span.start * _US, "dur": span.duration * _US,
            "pid": 1, "tid": span.thread_id, "args": _jsonable(span.attrs),
        })

    def write_instant(self, event: InstantEvent) -> None:
        """Append one instant event (called under the tracer's lock)."""
        self._write({
            "name": event.name, "cat": "repro", "ph": "i",
            "ts": event.ts * _US, "pid": 1, "tid": event.thread_id,
            "s": "t", "args": _jsonable(event.attrs),
        })

    def _write(self, event: Dict[str, Any]) -> None:
        self._fh.write(",\n" + json.dumps(event))
        self._fh.flush()
        self.written += 1

    def close(self) -> None:
        """Write the closing ``]`` and close the file (idempotent)."""
        if self._fh.closed:
            return
        self._fh.write("]\n")
        self._fh.close()


def span_summary(tracer: Tracer, title: str = "spans") -> str:
    """Per-span-name wall-clock aggregate as a human-readable table."""
    rows = tracer.summary_rows()
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    if not rows:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    lines.append(
        f"{'span':28s} {'count':>8s} {'total':>10s} {'mean':>10s} {'max':>10s}"
    )
    for name, count, total, mean, mx in rows:
        lines.append(
            f"{name:28s} {count:8,d} {_fmt(total)} {_fmt(mean)} {_fmt(mx)}"
        )
    return "\n".join(lines)


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
