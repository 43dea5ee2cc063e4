"""Cycle count estimation (paper Section IV-B1).

The analysis is recursive over the hierarchical IR (the estimator's walk,
:mod:`repro.estimation.walk`): the runtime of MetaPipe and Sequential
nodes is calculated from the runtimes of the controllers they contain,
Pipe bodies contribute their critical-path latency (ASAP schedule,
II=1), and tile transfers are modeled from the number and length of
memory commands, available off-chip bandwidth, and contention from
competing accessors. This module holds the per-kind formulas.

The MetaPipe formula is the paper's:

    (N - 1) * max(cycles(n) | n in nodes) + sum(cycles(n) for n in nodes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .. import obs
from ..ir.controllers import Pipe
from ..ir.graph import Design
from ..ir.memops import TileTransfer
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
    from .walk import Numbers, cycles  # the walk imports these formulas

    with obs.span("cycles", design=design.name) as sp:
        estimate = CycleEstimate(0.0, board)
        estimate.total = cycles(
            Numbers(board=board), design, estimate.per_controller
        )
        sp.set(cycles=estimate.total)
    return estimate


# The formulas below take plain numbers: the walk (repro.estimation.walk)
# calls them on a design's numbers and class plans call them on a point's.


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
