"""Additional DRAM-model path coverage: issue-bound and latency regimes."""

import pytest

from repro.ir import Design, Float32
from repro.ir import builder as hw
from repro.sim.dram import CMD_ISSUE_CYCLES, simulate_transfer
from repro.target import MAIA


def make_2d_transfer(rows, row_words, par=64):
    with Design(f"t{rows}x{row_words}") as d:
        off = hw.offchip("off", Float32, rows * 4, row_words * 4)
        buf = hw.bram("buf", Float32, rows, row_words)
        with hw.sequential("top"):
            t = hw.tile_load(
                off, buf, (0, 0), (rows, row_words), par=par
            )
    return t


class TestIssueBoundRegime:
    def test_many_tiny_rows_are_issue_bound(self):
        # 256 rows of 4 words: command issue dominates streaming.
        t = make_2d_transfer(rows=256, row_words=4)
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.issue == 256 * CMD_ISSUE_CYCLES
        assert timing.total == pytest.approx(
            MAIA.dram_latency_cycles + timing.issue
        )

    def test_few_long_rows_are_stream_bound(self):
        t = make_2d_transfer(rows=2, row_words=8192)
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.stream > timing.issue

    def test_issue_bound_insensitive_to_light_contention(self):
        t = make_2d_transfer(rows=256, row_words=4)
        alone = simulate_transfer(t, MAIA, streams=1)
        shared = simulate_transfer(t, MAIA, streams=2)
        assert shared.total == alone.total  # issue dominates both
        # Heavy contention eventually pushes streaming past issue cost.
        crowded = simulate_transfer(t, MAIA, streams=16)
        assert crowded.total > alone.total

    def test_estimator_also_models_issue_bound(self):
        """The estimator's per-command gap must catch the same regime."""
        from repro.estimation.cycles import CMD_ISSUE_GAP, stream_cycles

        t = make_2d_transfer(rows=256, row_words=4)
        est = stream_cycles(
            t.offchip.tp.bits, t.contiguous_words, t.num_commands, t.par,
            MAIA, contention=1,
        )
        assert est >= MAIA.dram_latency_cycles + 256 * CMD_ISSUE_GAP


class TestBytesAccounting:
    def test_per_row_alignment_dominates_small_rows(self):
        t = make_2d_transfer(rows=16, row_words=4)  # 16 B rows -> 384 B each
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.bytes_moved == 16 * 384

    def test_aligned_rows_no_waste(self):
        t = make_2d_transfer(rows=4, row_words=96)  # 384 B rows exactly
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.bytes_moved == 4 * 384

    def test_efficiency_reported(self):
        t = make_2d_transfer(rows=4, row_words=96)
        assert simulate_transfer(t, MAIA, streams=1).efficiency == 1.0
        assert simulate_transfer(t, MAIA, streams=4).efficiency < 1.0
