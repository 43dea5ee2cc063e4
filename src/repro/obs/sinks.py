"""Trace export sinks: JSONL, Chrome trace-event, summary table.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in ``chrome://tracing`` or Perfetto
  (https://ui.perfetto.dev). Spans become complete (``"ph": "X"``)
  events with microsecond timestamps; instant events become ``"ph": "i"``
  marks on the timeline.
* :func:`to_sim_chrome_trace` / :func:`write_sim_chrome_trace` — the
  same format, but laid out in **simulated time**: the ``sim.ctrl`` span
  tree (one span per controller walked by :mod:`repro.sim.executor`) is
  re-timed from its ``cycles`` attributes (1 cycle = 1 µs tick), so the
  Perfetto timeline shows the modeled hardware schedule — sequential
  stages back-to-back, metapipe stages staggered as they fill, parallel
  stages side by side on separate lanes — rather than the simulator's
  own (instant) wall-clock walk.
* :func:`write_jsonl` — one JSON object per line per span/instant, for
  ad-hoc analysis with ``jq`` or pandas.
* :func:`span_summary` — per-span-name aggregate wall-clock table, the
  quickest answer to "where did the time go".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from .trace import InstantEvent, Span, Tracer

__all__ = [
    "JsonlStreamWriter",
    "to_chrome_trace",
    "to_sim_chrome_trace",
    "write_chrome_trace",
    "write_sim_chrome_trace",
    "write_jsonl",
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


def to_sim_chrome_trace(
    tracer: Tracer, process_name: str = "repro-sim"
) -> Dict[str, Any]:
    """Re-time the ``sim.ctrl`` span tree into simulated cycles.

    The simulator's spans measure its own (analytical, near-instant)
    walk; the modeled hardware time lives in each span's ``cycles``
    attribute. This sink rebuilds the controller tree from span
    parentage and lays it out on a synthetic timeline where 1 cycle =
    1 µs, following each controller's semantics:

    * ``Sequential`` (and leaf-bearing defaults) — children
      back-to-back;
    * ``MetaPipe`` — children staggered by the preceding stages' cycles
      (the pipeline-fill schedule);
    * ``Parallel`` — children start together, overflow stages on their
      own lanes (``tid``).

    Durations are per walked execution (one iteration of a loop body),
    while a looping parent's slice spans its full ``iterations x
    per-iteration`` extent — exactly the fill/steady-state picture
    Figure 5 debugging needs.
    """
    spans = [s for s in tracer.spans if s.name == "sim.ctrl"]
    by_id = {s.span_id: s for s in spans}
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.span_id)  # walk order == program order
    roots.sort(key=lambda s: s.span_id)

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    next_lane = [0]

    def cycles_of(span: Span) -> float:
        try:
            return float(span.attrs.get("cycles") or 0.0)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return 0.0

    def emit(span: Span, start: float, lane: int) -> None:
        events.append(
            {
                "name": str(span.attrs.get("ctrl", span.name)),
                "cat": "sim",
                "ph": "X",
                "ts": start,
                "dur": max(cycles_of(span), 1.0),
                "pid": 1,
                "tid": lane,
                "args": _jsonable(dict(span.attrs, start_cycle=start)),
            }
        )
        kids = children.get(span.span_id, [])
        if span.attrs.get("kind") == "Parallel":
            for i, kid in enumerate(kids):
                kid_lane = lane
                if i:
                    next_lane[0] += 1
                    kid_lane = next_lane[0]
                emit(kid, start, kid_lane)
        else:
            # Sequential children run back-to-back; MetaPipe stages
            # stagger by the same cumulative offsets (the fill ramp).
            cursor = start
            for kid in kids:
                emit(kid, cursor, lane)
                cursor += cycles_of(kid)

    cursor = 0.0
    for root in roots:
        emit(root, cursor, 0)
        cursor += cycles_of(root)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_sim_chrome_trace(
    tracer: Tracer, dest: Union[str, IO[str]],
    process_name: str = "repro-sim",
) -> int:
    """Write :func:`to_sim_chrome_trace` output; returns the slice count."""
    doc = to_sim_chrome_trace(tracer, process_name)
    if hasattr(dest, "write"):
        json.dump(doc, dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w") as fh:  # type: ignore[arg-type]
            json.dump(doc, fh)
    return sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "X")


def _span_record(span: Span) -> Dict[str, Any]:
    """One span as the JSONL line dict (shared by batch + stream sinks)."""
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


def write_jsonl(tracer: Tracer, dest: Union[str, IO[str]]) -> None:
    """Write every span and instant as one JSON object per line."""

    def _dump(fh: IO[str]) -> None:
        for span in tracer.spans:
            fh.write(json.dumps(_span_record(span)) + "\n")
        for ev in tracer.instants:
            fh.write(json.dumps(_instant_record(ev)) + "\n")

    if hasattr(dest, "write"):
        _dump(dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w") as fh:  # type: ignore[arg-type]
            _dump(fh)


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


def _fmt(seconds: float) -> str:
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
