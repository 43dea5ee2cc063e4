"""Cycle count estimation (paper Section IV-B1).

The analysis is recursive over the hierarchical IR: the runtime of MetaPipe
and Sequential nodes is calculated from the runtimes of the controllers
they contain, Pipe bodies contribute their critical-path latency (ASAP
schedule, II=1), and tile transfers are modeled from the number and length
of memory commands, available off-chip bandwidth, and contention from
competing accessors.

The MetaPipe formula is the paper's:

    (N - 1) * max(cycles(n) | n in nodes) + sum(cycles(n) for n in nodes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import (
    Design, overlap_streams, pipe_latency, weighted_transfers,
)
from ..ir.memops import TileTransfer
from ..ir.node import Const
from ..ir.primitives import op_latency
from ..target.board import MAIA, Board

# Fixed model constants (fabric cycles).
PIPE_STARTUP = 4
SEQ_STAGE_SYNC = 2
METAPIPE_STAGE_SYNC = 3
PARALLEL_SYNC = 2
CMD_ISSUE_GAP = 4


@dataclass
class CycleEstimate:
    """Estimated execution cycles with a per-controller breakdown."""

    total: float
    board: Board
    per_controller: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.total / self.board.fabric_clock_hz


def estimate_cycles(design: Design, board: Board = MAIA) -> CycleEstimate:
    """Estimate the total runtime of ``design`` on ``board`` in cycles."""
    with obs.span("cycles", design=design.name) as sp:
        estimate = CycleEstimate(0.0, board)
        total = 0.0
        for top in design.top_controllers:
            total += _controller_cycles(top, board, 0, estimate)
        estimate.total = total
        sp.set(cycles=total)
    return estimate


def _controller_cycles(
    ctrl: Controller,
    board: Board,
    contention: int,
    estimate: CycleEstimate,
) -> float:
    if isinstance(ctrl, TileTransfer):
        cycles = transfer_cycles(ctrl, board, contention + 1)
    elif isinstance(ctrl, Pipe):
        cycles = _pipe_cycles(ctrl)
    elif isinstance(ctrl, Parallel):
        # Children run concurrently: each child's transfers compete with
        # every *other* child's transfers (plus anything already active).
        cycles = parallel_cycles(
            _controller_cycles(
                child, board, overlap_streams(ctrl, child, contention),
                estimate,
            )
            for child in ctrl.stages
        )
    elif isinstance(ctrl, MetaPipe):
        # Stages overlap in steady state: their transfers compete for DRAM.
        cycles = metapipe_cycles(ctrl.iterations, [
            _controller_cycles(
                child, board, overlap_streams(ctrl, child, contention),
                estimate,
            )
            for child in ctrl.stages
        ])
    elif isinstance(ctrl, Sequential):
        # Stages run one at a time, but replicated loop bodies (par > 1)
        # execute concurrently and compete for DRAM.
        cycles = sequential_cycles(ctrl.iterations, [
            _controller_cycles(
                child,
                board,
                contention + (ctrl.par - 1) * weighted_transfers(child),
                estimate,
            )
            for child in ctrl.stages
        ])
    else:  # pragma: no cover - exhaustive over controller kinds
        cycles = 0.0
    estimate.per_controller[ctrl.key] = cycles
    return cycles


# The per-kind formulas below take plain numbers so the class-plan path
# (repro.estimation.plan) evaluates exactly the same float operations.


def parallel_cycles(child_cycles) -> float:
    """A Parallel waits for its slowest child, plus the barrier."""
    return max(child_cycles, default=0.0) + PARALLEL_SYNC


def metapipe_cycles(iterations: int, stage_cycles) -> float:
    """The paper's MetaPipe formula over synchronized stages."""
    stage_cycles = [c + METAPIPE_STAGE_SYNC for c in stage_cycles]
    return (
        (iterations - 1) * max(stage_cycles, default=0.0) + sum(stage_cycles)
    )


def sequential_cycles(iterations: int, stage_cycles) -> float:
    """Stages one after another, every iteration."""
    return iterations * sum(c + SEQ_STAGE_SYNC for c in stage_cycles)


def _pipe_cycles(pipe: Pipe) -> float:
    """Latency of one Pipe: critical path + (N-1) at II=1 (+ reduce drain)."""
    body = [n for n in pipe.body_prims if not isinstance(n, Const)]
    return pipe_cycles(
        pipe_latency(body), pipe.iterations, pipe.par, drain_latency(pipe)
    )


def drain_latency(pipe: Pipe):
    """Per-level latency of a reduce Pipe's tree drain, or None."""
    if pipe.accum is not None and pipe.result is not None:
        tp = getattr(pipe.result, "tp", None)
        if tp is not None:
            return op_latency(pipe.accum[0], tp)
    return None


def pipe_cycles(latency: int, iterations: int, par: int, drain) -> int:
    """PIPE_STARTUP + critical path + (N-1) at II=1, plus the tree drain."""
    cycles = PIPE_STARTUP + latency + max(iterations - 1, 0)
    if drain is not None:
        tree_depth = math.ceil(math.log2(par)) if par > 1 else 0
        cycles += (tree_depth + 1) * drain
    return cycles


def transfer_cycles(
    transfer: TileTransfer, board: Board, contention: int
) -> float:
    """Cycles for one tile load/store including command issue and bandwidth.

    The transfer streams ``words`` at a rate bounded by (a) its own
    parallelization factor (words accepted per fabric cycle) and (b) a fair
    share of achievable DRAM bandwidth across ``contention`` concurrent
    streams. Command issue is pipelined but each distinct command (one per
    non-contiguous row) pays an issue gap; the DRAM round-trip latency is
    paid once.
    """
    return stream_cycles(
        transfer.offchip.tp.bits, transfer.contiguous_words,
        transfer.num_commands, transfer.par, board, contention,
    )


def stream_cycles(
    word_bits: int,
    contiguous_words: int,
    num_commands: int,
    par: int,
    board: Board,
    contention: int,
) -> float:
    """:func:`transfer_cycles` on the transfer's plain numbers."""
    # Each command moves one contiguous row, rounded up to whole bursts
    # (the estimator models "the number and length of memory commands").
    row_bits = contiguous_words * word_bits
    row_bytes = board.burst_aligned_bytes(-(-row_bits // 8))
    total_bytes = num_commands * row_bytes

    bw_words_per_cycle = board.bytes_per_cycle * 8.0 / word_bits
    rate = min(float(par), bw_words_per_cycle / max(contention, 1))
    rate = max(rate, 1e-9)
    stream = (total_bytes * 8.0 / word_bits) / rate
    issue = num_commands * CMD_ISSUE_GAP
    return board.dram_latency_cycles + max(stream, issue)
