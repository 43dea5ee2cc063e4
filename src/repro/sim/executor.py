"""Cycle simulation of a DHDL design instance — the runtime ground truth.

Plays the role of "running the design on the FPGA" in the paper's
evaluation: the estimator's runtime predictions (Section IV-B1) are scored
against this simulator's cycle counts (Table III). It walks the same
controller hierarchy but at higher fidelity:

* tile transfers pay per-command burst alignment, command issue gaps, and
  interleaving efficiency losses (:mod:`repro.sim.dram`);
* controllers pay handshake overheads per stage and iteration;
* coarse-grained pipelines fill and drain stage-by-stage;
* parallelized reduce pipes pay exact combine-tree drain latency.

Like the estimator, it is analytical per controller (it does not tick
every cycle), so simulating a multi-billion-cycle design is instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import (
    Design, executions, overlap_streams, pipe_latency, weighted_transfers,
)
from ..ir.memops import TileTransfer
from ..ir.primitives import op_latency
from ..target.board import MAIA, Board
from .dram import simulate_transfer

PIPE_HANDSHAKE = 6
SEQ_STAGE_HANDSHAKE = 3
METAPIPE_STAGE_HANDSHAKE = 4
PARALLEL_JOIN = 3


@dataclass
class SimResult:
    """Measured (simulated) execution of one design."""

    design_name: str
    cycles: float
    board: Board
    per_controller: Dict[str, float] = field(default_factory=dict)
    dram_bytes: int = 0
    # Executed tile transfers, and their cycles queued behind sibling
    # streams (:attr:`repro.sim.dram.TransferTiming.wait`).
    transfers: int = 0
    contention_cycles: float = 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / self.board.fabric_clock_hz

    @property
    def effective_bandwidth(self) -> float:
        """Achieved DRAM bandwidth in bytes/second."""
        if self.cycles == 0:
            return 0.0
        return self.dram_bytes / self.seconds


def simulate(design: Design, board: Board = MAIA) -> SimResult:
    """Simulate the execution of ``design``, returning measured cycles."""
    with obs.span("simulate", design=design.name) as sp:
        result = SimResult(design.name, 0.0, board)
        total = 0.0
        for top in design.top_controllers:
            total += _run(top, board, 0, result)
        result.cycles = total
        sp.set(
            cycles=total, dram_bytes=result.dram_bytes,
            transfers=result.transfers,
            contention_cycles=result.contention_cycles,
        )
    return result


def _run(
    ctrl: Controller, board: Board, streams: int, result: SimResult
) -> float:
    if isinstance(ctrl, TileTransfer):
        timing = simulate_transfer(ctrl, board, streams + 1)
        runs = executions(ctrl)
        result.transfers += runs
        result.dram_bytes += timing.bytes_moved * runs
        result.contention_cycles += timing.wait * runs
        cycles = timing.total
    elif isinstance(ctrl, Pipe):
        cycles = _run_pipe(ctrl)
    elif isinstance(ctrl, Parallel):
        cycles = max(
            (
                _run(child, board, overlap_streams(ctrl, child, streams),
                     result)
                for child in ctrl.stages
            ),
            default=0.0,
        )
        cycles += PARALLEL_JOIN
    elif isinstance(ctrl, MetaPipe):
        stage_cycles = [
            _run(child, board, overlap_streams(ctrl, child, streams), result)
            + METAPIPE_STAGE_HANDSHAKE
            for child in ctrl.stages
        ]
        n = ctrl.iterations
        # Fill with every stage once, then steady state at the slowest
        # stage, exactly like an asynchronous handshaked pipeline.
        cycles = sum(stage_cycles) + (n - 1) * max(stage_cycles, default=0.0)
    elif isinstance(ctrl, Sequential):
        per_iter = sum(
            _run(
                child,
                board,
                streams + (ctrl.par - 1) * weighted_transfers(child),
                result,
            )
            + SEQ_STAGE_HANDSHAKE
            for child in ctrl.stages
        )
        cycles = ctrl.iterations * per_iter
    else:  # pragma: no cover - exhaustive over controller kinds
        cycles = 0.0
    result.per_controller[ctrl.key] = cycles
    return cycles


def _run_pipe(pipe: Pipe) -> float:
    n = pipe.iterations
    cycles = PIPE_HANDSHAKE + pipe_latency(pipe.body) + max(n - 1, 0)
    if pipe.accum is not None and pipe.result is not None:
        tp = getattr(pipe.result, "tp", None)
        if tp is not None:
            lat = op_latency(pipe.accum[0], tp)
            tree_depth = math.ceil(math.log2(pipe.par)) if pipe.par > 1 else 0
            # Combine-tree drain plus the accumulator's own feedback drain.
            cycles += tree_depth * lat + 2 * lat
    return cycles
