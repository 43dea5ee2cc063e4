"""Timing analysis: propagation delays and fabric-clock feasibility.

Used both by the synthesis substrate (to report an achieved Fmax) and by
the estimator's delay-balancing pass (to identify the critical path of a
Pipe body). Delays are per-stage pipeline delays at the paper's 150 MHz
fabric clock; every primitive is already registered at its output, so the
question is whether any single pipeline stage exceeds the clock period.
"""

from __future__ import annotations

from typing import Dict

from ..ir.controllers import Pipe
from ..ir.graph import Design
from ..ir.primitives import LoadOp, Prim, StoreOp

# Propagation delay of one pipeline stage of each op, in nanoseconds.
_STAGE_DELAY_NS: Dict[str, float] = {
    "add": 5.1,
    "sub": 5.1,
    "mul": 5.6,
    "div": 5.5,
    "sqrt": 5.5,
    "log": 5.6,
    "exp": 5.6,
    "lt": 3.1,
    "gt": 3.1,
    "le": 3.1,
    "ge": 3.1,
    "eq": 2.8,
    "ne": 2.8,
    "and": 1.2,
    "or": 1.2,
    "not": 0.9,
    "mux": 1.8,
    "abs": 1.6,
    "neg": 1.6,
    "min": 3.4,
    "max": 3.4,
    "floor": 2.2,
}
_MEM_DELAY_NS = 2.4
_ROUTE_DELAY_NS = 0.9


def stage_delay_ns(node: object, congestion: float = 1.0) -> float:
    """Worst single-stage propagation delay of one node, including routing."""
    if isinstance(node, Prim):
        base = _STAGE_DELAY_NS.get(node.op, 4.0)
    elif isinstance(node, (LoadOp, StoreOp)):
        base = _MEM_DELAY_NS
    else:
        return 0.0
    return base + _ROUTE_DELAY_NS * congestion


def design_max_stage_ns(design: Design, congestion: float = 1.0) -> float:
    """Slowest pipeline stage anywhere in the design."""
    worst = 1.0
    for pipe in design.pipes():
        for node in pipe.body:
            worst = max(worst, stage_delay_ns(node, congestion))
    return worst


def achieved_fmax_hz(design: Design, congestion: float = 1.0) -> float:
    """Estimated maximum fabric clock after place-and-route."""
    return 1e9 / design_max_stage_ns(design, congestion)


def meets_clock(design: Design, clock_hz: float, congestion: float = 1.0) -> bool:
    """Whether the design closes timing at ``clock_hz``."""
    return achieved_fmax_hz(design, congestion) >= clock_hz
