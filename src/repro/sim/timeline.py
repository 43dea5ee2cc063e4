"""Execution timeline: a Gantt-style view of one design's schedule.

The one layout of a simulated schedule. Builds start/end intervals for
every controller from the cycle simulator's per-controller results,
respecting the schedule semantics — Sequential stages chain, Parallel
children share a start, MetaPipe stages overlap after their fill delay.
One *representative* outer iteration is laid out (steady state), which is
what you want when eyeballing where time goes.

`to_chrome_trace` renders it as the Chrome trace-event JSON behind
``repro speedup --sim-trace`` (1 cycle = 1 µs tick, loadable in
https://ui.perfetto.dev), with each overlapping sibling of a Parallel or
MetaPipe on its own lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..ir.controllers import Controller, MetaPipe, Parallel
from ..ir.graph import Design
from ..target.board import MAIA, Board
from .executor import METAPIPE_STAGE_HANDSHAKE, SEQ_STAGE_HANDSHAKE, simulate


@dataclass
class Interval:
    """One controller's activity window within the laid-out schedule."""

    name: str
    kind: str
    start: float
    end: float
    depth: int
    lane: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    design_name: str
    intervals: List[Interval] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((iv.end for iv in self.intervals), default=0.0)

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """The intervals as Chrome trace-event slices (1 cycle = 1 µs).

        The JSON Array Format of ``--trace`` files: a list that starts
        with the ``process_name`` metadata event. Zero-cycle slices are drawn one tick wide so Perfetto shows them;
        ``args.cycles`` keeps the simulated duration.
        """
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": f"repro-sim {self.design_name}"},
        }]
        for iv in self.intervals:
            events.append({
                "name": iv.name, "cat": "sim", "ph": "X",
                "ts": iv.start, "dur": max(iv.duration, 1.0),
                "pid": 1, "tid": iv.lane,
                "args": {"kind": iv.kind, "cycles": iv.duration},
            })
        return events


def build_timeline(design: Design, board: Board = MAIA) -> Timeline:
    """Lay out one steady-state iteration of the design's schedule."""
    result = simulate(design, board)
    timeline = Timeline(design.name)
    lanes = [0]

    def layout(ctrl: Controller, start: float, depth: int, lane: int) -> float:
        """Place ``ctrl`` (one execution) at ``start``; return its end."""
        end = start + result.per_controller.get(ctrl.key, 0.0)
        timeline.intervals.append(
            Interval(ctrl.name, ctrl.kind, start, end, depth, lane)
        )
        overlaps = isinstance(ctrl, (Parallel, MetaPipe))
        cursor = start
        for i, child in enumerate(ctrl.stages):
            child_lane = lane
            if overlaps and i:
                lanes[0] += 1
                child_lane = lanes[0]
            child_end = layout(child, cursor, depth + 1, child_lane)
            if isinstance(ctrl, MetaPipe):
                # Steady state: each stage starts one handshake after the
                # previous stage *started* (they overlap on successive
                # iterations' data).
                cursor += METAPIPE_STAGE_HANDSHAKE
            elif not isinstance(ctrl, Parallel):
                cursor = child_end + SEQ_STAGE_HANDSHAKE
        return end

    cursor = 0.0
    for top in design.top_controllers:
        cursor = layout(top, cursor, 0, 0)
    return timeline
