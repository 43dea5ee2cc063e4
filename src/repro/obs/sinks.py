"""Trace export sinks: JSONL, Chrome trace-event, summary table.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in ``chrome://tracing`` or Perfetto
  (https://ui.perfetto.dev). Spans become complete (``"ph": "X"``)
  events with microsecond timestamps; instant events become ``"ph": "i"``
  marks on the timeline.
* :class:`JsonlStreamWriter` — one JSON object per line per span/instant,
  written as each one finishes, for ad-hoc analysis with ``jq`` or pandas.
* :func:`span_summary` — per-span-name aggregate wall-clock table, the
  quickest answer to "where did the time go".

These sinks record this process's wall clock. The modeled hardware
schedule in *simulated* time is drawn by
:meth:`repro.sim.Timeline.to_chrome_trace` instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from .metrics import _fmt
from .trace import InstantEvent, Span, Tracer

__all__ = [
    "JsonlStreamWriter",
    "to_chrome_trace",
    "write_chrome_trace",
    "span_summary",
]

_US = 1e6  # Chrome trace timestamps are in microseconds


def to_chrome_trace(tracer: Tracer, process_name: str = "repro") -> Dict[str, Any]:
    """Render the tracer's events as a Chrome trace-event dict."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": 1,
                "tid": span.thread_id,
                "args": _jsonable(span.attrs),
            }
        )
    for ev in tracer.instants:
        events.append(
            {
                "name": ev.name,
                "cat": "repro",
                "ph": "i",
                "ts": ev.ts * _US,
                "pid": 1,
                "tid": ev.thread_id,
                "s": "t",
                "args": _jsonable(ev.attrs),
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(
    tracer: Tracer, dest: Union[str, IO[str]], process_name: str = "repro"
) -> None:
    """Write :func:`to_chrome_trace` output to a path or open file."""
    doc = to_chrome_trace(tracer, process_name)
    if hasattr(dest, "write"):
        json.dump(doc, dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w") as fh:  # type: ignore[arg-type]
            json.dump(doc, fh)


def _span_record(span: Span) -> Dict[str, Any]:
    """One span as the JSONL line dict."""
    return {
        "type": "span",
        "name": span.name,
        "id": span.span_id,
        "parent": span.parent_id,
        "thread": span.thread_id,
        "start_s": span.start,
        "end_s": span.end,
        "duration_s": span.duration,
        "attrs": _jsonable(span.attrs),
    }


def _instant_record(ev: InstantEvent) -> Dict[str, Any]:
    """One instant event as the JSONL line dict."""
    return {
        "type": "instant",
        "name": ev.name,
        "thread": ev.thread_id,
        "ts_s": ev.ts,
        "attrs": _jsonable(ev.attrs),
    }


class JsonlStreamWriter:
    """Incremental JSONL sink for :meth:`Tracer.attach_stream`.

    Writes each finished span/instant as it completes, so a killed run
    still leaves a partial trace on disk. Lines are flushed every
    ``flush_every`` writes.
    """

    def __init__(
        self,
        dest: Union[str, Path, IO[str]],
        flush_every: int = 1000,
    ) -> None:
        if hasattr(dest, "write"):
            self._fh: Optional[IO[str]] = dest  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(dest, "w")  # type: ignore[arg-type]
            self._owns = True
        self._flush_every = max(int(flush_every), 1)
        self._pending = 0
        self.written = 0

    def write_span(self, span: Span) -> None:
        """Append one finished span (called under the tracer's lock)."""
        self._write(_span_record(span))

    def write_instant(self, event: InstantEvent) -> None:
        """Append one instant event (called under the tracer's lock)."""
        self._write(_instant_record(event))

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:  # pragma: no cover - write after close
            return
        self._fh.write(json.dumps(record) + "\n")
        self.written += 1
        self._pending += 1
        if self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        """Flush and (if this writer opened the file) close it."""
        if self._fh is None:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
