"""Detailed off-chip memory model for the cycle simulator.

This is the runtime ground truth's DRAM: compared with the estimator's
bandwidth model it additionally accounts for per-command burst alignment
(each non-contiguous row of a 2-D tile is aligned separately), page-miss
efficiency loss when multiple streams interleave at the controller, and
per-command issue overhead. The estimator's simpler model (Section IV-B1)
is validated against this one, yielding the paper's ~6% runtime error.

Each transfer's ``wait`` is its contention penalty; the simulator sums
it into :attr:`repro.sim.SimResult.contention_cycles`, which the
``simulate`` span carries, so a traced run shows how much of a design's
memory time is queueing behind sibling streams rather than moving data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.memops import TileTransfer
from ..target.board import Board

CMD_ISSUE_CYCLES = 5
ARBITRATION_LOSS_PER_STREAM = 0.055


@dataclass
class TransferTiming:
    """Cycle breakdown of one tile transfer.

    ``wait`` is the contention penalty: streaming cycles beyond what the
    transfer would take with the DRAM channel to itself (no interleaving
    loss, no bandwidth split across sibling streams).
    """

    total: float
    stream: float
    issue: float
    latency: float
    bytes_moved: int
    efficiency: float
    wait: float = 0.0


def interleave_efficiency(streams: int) -> float:
    """DRAM efficiency when ``streams`` accessors interleave commands.

    Interleaved streams break row-buffer locality; each extra stream costs
    a few percent of achievable bandwidth.
    """
    return 1.0 / (1.0 + ARBITRATION_LOSS_PER_STREAM * max(streams - 1, 0))


def simulate_transfer(
    transfer: TileTransfer, board: Board, streams: int
) -> TransferTiming:
    """Cycle-accurate-ish timing of one tile load/store."""
    word_bits = transfer.offchip.tp.bits
    rows = transfer.num_commands
    row_bits = transfer.contiguous_words * word_bits
    row_bytes = board.burst_aligned_bytes(-(-row_bits // 8))
    total_bytes = rows * row_bytes

    eff = interleave_efficiency(streams)
    bw_bytes_per_cycle = board.bytes_per_cycle * eff / max(streams, 1)
    # The fabric-side port consumes at most `par` words per cycle.
    port_bytes_per_cycle = transfer.par * word_bits / 8.0
    rate = min(bw_bytes_per_cycle, port_bytes_per_cycle)
    rate = max(rate, 1e-9)

    stream_cycles = total_bytes / rate
    issue_cycles = rows * CMD_ISSUE_CYCLES
    latency = board.dram_latency_cycles
    total = latency + max(stream_cycles, issue_cycles)

    # Contention accounting: cycles queued behind sibling streams, i.e.
    # actual streaming time minus the solo (full-bandwidth) time at the
    # same port width.
    solo_rate = min(board.bytes_per_cycle, port_bytes_per_cycle)
    wait_cycles = max(stream_cycles - total_bytes / max(solo_rate, 1e-9), 0.0)

    return TransferTiming(
        total=total,
        stream=stream_cycles,
        issue=issue_cycles,
        latency=latency,
        bytes_moved=total_bytes,
        efficiency=eff,
        wait=wait_cycles,
    )
