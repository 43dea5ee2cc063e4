"""DRAM contention accounting: wait cycles and the ``simulate`` totals."""

import pytest

from repro import obs
from repro.sim.dram import simulate_transfer
from repro.target import MAIA

from .test_dram_paths import make_2d_transfer


@pytest.fixture()
def stream_bound():
    # Long contiguous rows: streaming dominates issue, so contention
    # actually shows up in total time.
    return make_2d_transfer(rows=2, row_words=8192)


class TestWaitCycles:
    def test_solo_transfer_never_waits(self, stream_bound):
        timing = simulate_transfer(stream_bound, MAIA, streams=1)
        assert timing.wait == 0.0

    def test_contended_transfer_waits(self, stream_bound):
        timing = simulate_transfer(stream_bound, MAIA, streams=4)
        assert timing.wait > 0.0
        # Wait is exactly the streaming time beyond the solo-rate time.
        solo = simulate_transfer(stream_bound, MAIA, streams=1)
        assert timing.wait == pytest.approx(timing.stream - solo.stream)

    def test_wait_grows_with_streams(self, stream_bound):
        waits = [
            simulate_transfer(stream_bound, MAIA, streams=s).wait
            for s in (1, 2, 4, 8)
        ]
        assert waits == sorted(waits)
        assert waits[-1] > waits[0]

    def test_port_bound_transfer_never_waits(self):
        # par=1 throttles the fabric port far below DRAM bandwidth: the
        # port, not sibling streams, is the bottleneck, so splitting DRAM
        # bandwidth two ways costs (almost) nothing.
        t = make_2d_transfer(rows=2, row_words=8192, par=1)
        solo = simulate_transfer(t, MAIA, streams=1)
        shared = simulate_transfer(t, MAIA, streams=2)
        assert solo.wait == 0.0
        assert shared.wait < shared.stream * 0.2


class TestContentionMetrics:
    def test_transfers_feed_dram_instruments(self):
        """Each executed transfer's bytes and wait land on the result and
        on the ``simulate`` span."""
        from repro.apps import get_benchmark
        from repro.sim import simulate

        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        obs.reset()
        obs.enable()
        try:
            result = simulate(design, MAIA)
            (span,) = obs.tracer().find("simulate")
        finally:
            obs.disable()
            obs.reset()
        assert result.transfers > 0 and result.dram_bytes > 0
        assert result.contention_cycles > 0
        assert span.attrs["transfers"] == result.transfers
        assert span.attrs["dram_bytes"] == result.dram_bytes
        assert span.attrs["contention_cycles"] == result.contention_cycles

    def test_disabled_metrics_record_nothing(self, stream_bound):
        obs.reset()
        simulate_transfer(stream_bound, MAIA, streams=4)
        assert obs.tracer().spans == [] and obs.tracer().instants == []

    def test_simulated_design_reports_contention(self):
        """End to end: the totals weight each transfer by its executions."""
        from repro.apps import get_benchmark
        from repro.ir.graph import executions
        from repro.ir.memops import TileTransfer
        from repro.sim import simulate

        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        result = simulate(design, MAIA)
        runs = sum(
            executions(node) for node in design.nodes
            if isinstance(node, TileTransfer)
        )
        assert result.transfers == runs > 0
        assert result.dram_bytes > 0
