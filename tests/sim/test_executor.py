"""Tests for the cycle simulator (runtime ground truth)."""

import pytest

from repro.ir import Design, Float32
from repro.ir import builder as hw
from repro.sim import simulate
from repro.sim.dram import interleave_efficiency, simulate_transfer
from repro.target import MAIA


def streaming_design(n=65536, tile=1024, par=4, metapipe=True, ntiles_loads=2):
    with Design(f"s{ntiles_loads}") as d:
        arrays = [hw.offchip(f"a{k}", Float32, n) for k in range(ntiles_loads)]
        out = hw.arg_out("out", Float32)
        with hw.sequential("top"):
            with hw.loop("tiles", [(n, tile)], metapipe_=metapipe,
                         accum=("add", out)) as tiles:
                (i,) = tiles.iters
                bufs = [
                    hw.bram(f"b{k}", Float32, tile)
                    for k in range(ntiles_loads)
                ]
                with hw.parallel():
                    for arr, buf in zip(arrays, bufs):
                        hw.tile_load(arr, buf, (i,), (tile,), par=par)
                acc = hw.reg("acc", Float32)
                with hw.pipe("body", [(tile, 1)], par=par,
                             accum=("add", acc)) as body:
                    (j,) = body.iters
                    v = bufs[0][j]
                    for buf in bufs[1:]:
                        v = v * buf[j]
                    body.returns(v)
                tiles.returns(acc)
    return d


class TestHierarchy:
    def test_metapipe_faster_than_sequential_when_balanced(self):
        mp = simulate(streaming_design(metapipe=True)).cycles
        seq = simulate(streaming_design(metapipe=False)).cycles
        assert mp < seq

    def test_more_iterations_more_cycles(self):
        small = simulate(streaming_design(n=16384)).cycles
        large = simulate(streaming_design(n=65536)).cycles
        assert large > 3 * small

    def test_parallelization_reduces_cycles(self):
        slow = simulate(streaming_design(par=1)).cycles
        fast = simulate(streaming_design(par=8)).cycles
        assert fast < slow

    def test_outer_par_reduces_cycles(self):
        def build(par_outer):
            with Design("op") as d:
                a = hw.offchip("a", Float32, 4096)
                with hw.sequential("top"):
                    with hw.metapipe("m", [(4096, 64)], par=par_outer) as m:
                        (i,) = m.iters
                        buf = hw.bram("buf", Float32, 64)
                        hw.tile_load(a, buf, (i,), (64,), par=4)
                        with hw.pipe("p", [(64, 1)]) as p:
                            (j,) = p.iters
                            buf[j] = buf[j] * 2.0
            return d

        base = simulate(build(1)).cycles
        par4 = simulate(build(4)).cycles
        assert par4 < base

    def test_per_controller_breakdown_populated(self):
        result = simulate(streaming_design())
        assert len(result.per_controller) >= 5
        assert result.cycles == max(result.per_controller.values())

    def test_dram_bytes_accounting(self):
        result = simulate(streaming_design(n=65536, ntiles_loads=2))
        # Two full input streams, burst-aligned.
        assert result.dram_bytes >= 2 * 65536 * 4
        assert result.dram_bytes < 2.2 * 65536 * 4

    def test_achieved_bandwidth_below_board_peak(self):
        result = simulate(streaming_design(par=64))
        assert result.dram_bytes / result.seconds <= MAIA.dram_effective_bw


class TestDramModel:
    def _transfer(self, words=1024, par=4):
        with Design("t") as d:
            a = hw.offchip("a", Float32, words)
            with hw.sequential("top"):
                buf = hw.bram("buf", Float32, words)
                tld = hw.tile_load(a, buf, (0,), (words,), par=par)
        return tld

    def test_port_bound_transfer(self):
        t = self._transfer(par=4)
        timing = simulate_transfer(t, MAIA, streams=1)
        # 4 words/cycle port on 1024 words: ~256 cycles of streaming.
        assert timing.stream == pytest.approx(1024 / 4, rel=0.1)

    def test_bandwidth_shared_across_streams(self):
        t = self._transfer(par=64)
        alone = simulate_transfer(t, MAIA, streams=1)
        shared = simulate_transfer(t, MAIA, streams=4)
        assert shared.total > 2 * alone.stream

    def test_burst_alignment_rounds_up(self):
        t = self._transfer(words=100)  # 400 B -> 2 bursts of 384 B
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.bytes_moved == 768

    def test_latency_always_paid(self):
        t = self._transfer(words=8)
        timing = simulate_transfer(t, MAIA, streams=1)
        assert timing.total >= MAIA.dram_latency_cycles

    def test_interleave_efficiency_monotone(self):
        effs = [interleave_efficiency(s) for s in (1, 2, 4, 8)]
        assert effs[0] == 1.0
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_2d_tile_pays_per_row_alignment(self):
        with Design("t2") as d:
            a = hw.offchip("a", Float32, 256, 256)
            with hw.sequential("top"):
                buf = hw.bram("buf", Float32, 16, 16)
                tld = hw.tile_load(a, buf, (0, 0), (16, 16), par=4)
        timing = simulate_transfer(tld, MAIA, streams=1)
        # 16 rows x 64 B each -> every row rounds up to one 384 B burst.
        assert timing.bytes_moved == 16 * 384
