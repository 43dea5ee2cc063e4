"""Tests for cycle-count estimation (paper Section IV-B1)."""

import pytest

from repro.ir import Design, Float32
from repro.ir import builder as hw
from repro.estimation import estimate_cycles
from repro.ir.graph import weighted_transfers
from repro.target import MAIA


def nested_metapipe(n_outer=16, stage_iters=(64, 256)):
    """A MetaPipe whose stages are pipes with known iteration counts."""
    with Design("mp") as d:
        with hw.sequential("top"):
            with hw.metapipe("m", [(n_outer, 1)]) as m:
                for idx, iters in enumerate(stage_iters):
                    buf = hw.bram(f"b{idx}", Float32, iters)
                    with hw.pipe(f"p{idx}", [(iters, 1)]) as p:
                        (j,) = p.iters
                        buf[j] = buf[j] + 1.0
    return d, m


class TestMetaPipeFormula:
    def test_formula_matches_paper(self):
        """(N-1) * max(stages) + sum(stages)."""
        d, m = nested_metapipe(n_outer=16, stage_iters=(64, 256))
        est = estimate_cycles(d)
        stage_keys = [k for k in est.per_controller if k.startswith("p")]
        from repro.estimation.cycles import METAPIPE_STAGE_SYNC

        stages = [
            est.per_controller[k] + METAPIPE_STAGE_SYNC for k in stage_keys
        ]
        expected = (16 - 1) * max(stages) + sum(stages)
        assert est.per_controller[[k for k in est.per_controller
                                   if k.startswith("m#")][0]] == pytest.approx(
            expected
        )

    def test_dominant_stage_drives_runtime(self):
        d1, _ = nested_metapipe(stage_iters=(64, 256))
        d2, _ = nested_metapipe(stage_iters=(256, 256))
        c1 = estimate_cycles(d1).total
        c2 = estimate_cycles(d2).total
        # Doubling the *small* stage barely matters.
        assert c2 < 1.15 * c1

    def test_sequential_sums_stages(self):
        def build(metapipe):
            with Design("x") as d:
                with hw.sequential("top"):
                    with hw.loop("m", [(16, 1)], metapipe_=metapipe):
                        for idx in range(2):
                            buf = hw.bram(f"b{idx}", Float32, 128)
                            with hw.pipe(f"p{idx}", [(128, 1)]) as p:
                                (j,) = p.iters
                                buf[j] = buf[j] + 1.0
            return d

        mp = estimate_cycles(build(True)).total
        seq = estimate_cycles(build(False)).total
        assert seq > 1.5 * mp


class TestPipeModel:
    def test_ii_one_iteration_scaling(self):
        def build(iters):
            with Design("p") as d:
                with hw.sequential("top"):
                    buf = hw.bram("b", Float32, iters)
                    with hw.pipe("p", [(iters, 1)]) as p:
                        (j,) = p.iters
                        buf[j] = buf[j] * 2.0
            return d

        c1 = estimate_cycles(build(1024)).total
        c2 = estimate_cycles(build(2048)).total
        assert c2 - c1 == pytest.approx(1024, rel=0.02)

    def test_deep_body_adds_latency_once(self):
        def build(depth):
            with Design("p") as d:
                with hw.sequential("top"):
                    buf = hw.bram("b", Float32, 512)
                    with hw.pipe("p", [(512, 1)]) as p:
                        (j,) = p.iters
                        v = buf[j]
                        for _ in range(depth):
                            v = v * 1.5
                        buf[j] = v
            return d

        shallow = estimate_cycles(build(1)).total
        deep = estimate_cycles(build(10)).total
        delta = deep - shallow
        assert 40 <= delta <= 80  # 9 extra float multiplies of latency 6

    def test_reduce_drain_grows_with_par(self):
        def build(par):
            with Design("r") as d:
                out = hw.arg_out("o", Float32)
                with hw.sequential("top"):
                    buf = hw.bram("b", Float32, 256)
                    with hw.pipe("p", [(256, 1)], par=par,
                                 accum=("add", out)) as p:
                        (j,) = p.iters
                        p.returns(buf[j])
            return d

        # Widening the reduce saves iterations but deepens the combine
        # tree: the drain (cycles beyond the iteration count) must grow.
        c_wide = estimate_cycles(build(64)).total
        c_wider = estimate_cycles(build(256)).total
        drain_wide = c_wide - 256 / 64
        drain_wider = c_wider - 256 / 256
        assert drain_wider > drain_wide


class TestTransferModel:
    def _loads_design(self, n_loads, par=16, words=4096):
        with Design(f"l{n_loads}") as d:
            arrays = [hw.offchip(f"a{k}", Float32, words)
                      for k in range(n_loads)]
            with hw.sequential("top"):
                bufs = [hw.bram(f"b{k}", Float32, words)
                        for k in range(n_loads)]
                with hw.parallel():
                    for arr, buf in zip(arrays, bufs):
                        hw.tile_load(arr, buf, (0,), (words,), par=par)
        return d

    def test_concurrent_loads_slower_than_single(self):
        single = estimate_cycles(self._loads_design(1, par=64)).total
        quad = estimate_cycles(self._loads_design(4, par=64)).total
        assert quad > 2.0 * single * 0.8

    def test_port_bound_unaffected_by_light_contention(self):
        # par=4 (16 B/cycle) uses a fraction of the 250 B/cycle bandwidth.
        single = estimate_cycles(self._loads_design(1, par=4)).total
        dual = estimate_cycles(self._loads_design(2, par=4)).total
        assert dual == pytest.approx(single, rel=0.05)

    def test_weighted_transfers_counts_replication(self):
        with Design("w") as d:
            a = hw.offchip("a", Float32, 4096)
            with hw.sequential("top") as top:
                with hw.metapipe("m", [(4096, 64)], par=4) as m:
                    (i,) = m.iters
                    buf = hw.bram("buf", Float32, 64)
                    hw.tile_load(a, buf, (i,), (64,))
                    with hw.pipe("p", [(64, 1)]) as p:
                        (j,) = p.iters
                        buf[j] = buf[j] + 1.0
        assert weighted_transfers(m) == 4
        assert weighted_transfers(top) == 4

    def test_seconds_conversion(self):
        d = self._loads_design(1)
        est = estimate_cycles(d, MAIA)
        assert est.seconds == pytest.approx(
            est.total / MAIA.fabric_clock_hz
        )
