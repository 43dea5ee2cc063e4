"""Roofline analysis for design points and benchmarks.

Places designs on the classic roofline: attainable performance =
min(peak compute of the instantiated datapath, arithmetic intensity x
memory bandwidth). Used to explain Figure 5's plateaus (tpchq6 hitting
the bandwidth roof) and crossovers (blackscholes turning memory-bound
around an inner parallelization of 16, Section V-C1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.graph import Design, replication, total_dram_bytes
from ..ir.primitives import Prim
from ..target.board import MAIA, Board

_FLOP_OPS = {"add", "sub", "mul", "div", "sqrt", "log", "exp", "min", "max"}


@dataclass
class RooflinePoint:
    """One design's position relative to the board's roofline."""

    design_name: str
    flops_per_byte: float  # arithmetic intensity of the algorithm instance
    peak_flops: float  # what the instantiated lanes could sustain
    bandwidth_roof_flops: float  # intensity x effective DRAM bandwidth
    attainable_flops: float
    achieved_flops: Optional[float] = None  # from measured/estimated runtime

    @property
    def memory_bound(self) -> bool:
        return self.bandwidth_roof_flops < self.peak_flops

    @property
    def efficiency(self) -> Optional[float]:
        if self.achieved_flops is None or self.attainable_flops == 0:
            return None
        return self.achieved_flops / self.attainable_flops


def count_design_flops_per_iteration(design: Design) -> float:
    """Floating-point lanes instantiated across all pipes (per cycle)."""
    lanes = 0.0
    for pipe in design.pipes():
        rep = replication(pipe)
        for node in pipe.body:
            if isinstance(node, Prim):
                if node.op in _FLOP_OPS and node.tp.is_float:
                    lanes += node.width * rep
        if pipe.accum is not None and pipe.par > 1:
            lanes += (pipe.par - 1) * rep  # combine tree
    return lanes


def analyze(
    design: Design,
    total_flops: float,
    runtime_s: Optional[float] = None,
    board: Board = MAIA,
) -> RooflinePoint:
    """Place ``design`` on the roofline.

    ``total_flops`` is the algorithm's work (from the benchmark's
    ``flops()``); ``runtime_s`` (estimated or simulated) adds the achieved
    point.
    """
    nbytes = total_dram_bytes(design)
    intensity = total_flops / nbytes if nbytes > 0 else float("inf")
    lanes = count_design_flops_per_iteration(design)
    peak = lanes * board.fabric_clock_hz
    bw_roof = intensity * board.dram_effective_bw
    attainable = min(peak, bw_roof) if nbytes > 0 else peak
    achieved = total_flops / runtime_s if runtime_s else None
    return RooflinePoint(
        design_name=design.name,
        flops_per_byte=intensity,
        peak_flops=peak,
        bandwidth_roof_flops=bw_roof,
        attainable_flops=attainable,
        achieved_flops=achieved,
    )
