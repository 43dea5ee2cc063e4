"""Tests for the toolchain optimizations inside netlist expansion."""

import pytest

from repro.ir import Design, Float32, Int32
from repro.ir import builder as hw
from repro.ir.graph import asap_schedule
from repro.synth import expand
from repro.synth.netlist import (
    BRAM_COALESCE_WORDS,
    DELAY_BRAM_THRESHOLD,
    FMA_FUSION_DISCOUNT,
)
from repro.target import STRATIX_V


class TestFMAFusion:
    def _mac_design(self, fuse: bool):
        """mul feeding add (fusable) vs mul with two consumers (not)."""
        with Design("fma" + str(fuse)) as d:
            buf = hw.bram("buf", Float32, 64)
            out = hw.bram("out", Float32, 64)
            with hw.sequential("top"):
                with hw.pipe("p", [(64, 1)]) as p:
                    (j,) = p.iters
                    prod = buf[j] * 2.0
                    total = prod + 1.0
                    if not fuse:
                        out[j] = prod  # second consumer blocks fusion
                    buf[j] = total
        return d

    def test_fused_add_cheaper(self):
        fused = expand(self._mac_design(True), STRATIX_V).totals_by_tag()
        unfused = expand(self._mac_design(False), STRATIX_V).totals_by_tag()
        # The unfused variant has an extra store, so compare prim cost only.
        assert fused["prim"].luts < unfused["prim"].luts

    def test_integer_mac_not_fused(self):
        with Design("imac") as d:
            buf = hw.bram("buf", Int32, 64)
            with hw.sequential("top"):
                with hw.pipe("p", [(64, 1)]) as p:
                    (j,) = p.iters
                    buf[j] = buf[j] * 2 + 1
        tags = expand(d, STRATIX_V).totals_by_tag()
        # No discount path: int mul+add cost equals the raw sum (sanity:
        # the discount constant would have shaved ~35% off the add).
        assert tags["prim"].luts > 0
        assert FMA_FUSION_DISCOUNT < 1.0


class TestBRAMCoalescing:
    def test_small_sibling_buffers_share_blocks(self):
        def build(size):
            with Design(f"co{size}") as d:
                with hw.sequential("top"):
                    bufs = [hw.bram(f"b{k}", Float32, size) for k in range(4)]
                    with hw.pipe("p", [(size, 1)]) as p:
                        (j,) = p.iters
                        for buf in bufs:
                            buf[j] = buf[j] + 1.0
            return d

        small = expand(build(BRAM_COALESCE_WORDS), STRATIX_V).totals()
        large = expand(build(BRAM_COALESCE_WORDS * 5), STRATIX_V).totals()
        # Four coalesced small buffers fit one block; four large ones
        # cannot coalesce and take one block each (or more).
        assert small.brams == 1
        assert large.brams >= 4

    def test_banked_buffers_never_coalesce(self):
        with Design("banked") as d:
            with hw.sequential("top"):
                bufs = [hw.bram(f"b{k}", Float32, 32) for k in range(2)]
                with hw.pipe("p", [(32, 1)], par=4) as p:
                    (j,) = p.iters
                    for buf in bufs:
                        buf[j] = buf[j] + 1.0
        total = expand(d, STRATIX_V).totals()
        assert total.brams >= 8  # 2 buffers x 4 banks


class TestDelayBalancing:
    def _skewed_pipe(self, depth):
        """One input goes through a deep chain, the other arrives early."""
        with Design(f"skew{depth}") as d:
            a = hw.bram("a", Float32, 64)
            b = hw.bram("b", Float32, 64)
            with hw.sequential("top"):
                with hw.pipe("p", [(64, 1)]) as p:
                    (j,) = p.iters
                    slow = a[j]
                    for _ in range(depth):
                        slow = slow * 1.01
                    b[j] = slow + b[j]  # b[j] has huge slack
        return d

    def test_slack_costs_registers(self):
        shallow = expand(self._skewed_pipe(1), STRATIX_V).totals_by_tag()
        deeper = expand(self._skewed_pipe(2), STRATIX_V).totals_by_tag()
        # Below the BRAM threshold, delay registers grow with slack.
        assert deeper["delay"].regs > shallow["delay"].regs
        assert shallow["delay"].brams == 0

    def test_long_slack_becomes_bram(self):
        very_deep = expand(self._skewed_pipe(4), STRATIX_V).totals_by_tag()
        # 4 multiplies x 6 cycles of slack exceeds the 16-cycle threshold:
        # the shift register collapses into a BRAM delay line.
        assert very_deep["delay"].brams >= 1
        assert very_deep["delay"].regs < 100

    def test_asap_schedule_monotone(self):
        d = self._skewed_pipe(3)
        pipe = next(iter(d.pipes()))
        times = asap_schedule(pipe.body_prims)
        for node in pipe.body_prims:
            start, end = times[node.nid]
            assert end >= start
            for inp in getattr(node, "inputs", []):
                if inp.nid in times:
                    assert start >= times[inp.nid][1]


class TestReplicationAgreement:
    def test_estimator_tracks_truth_under_outer_par(self, estimator):
        """Replication must scale estimate and ground truth in lockstep."""
        from repro.apps import get_benchmark
        from repro.synth import synthesize

        bench = get_benchmark("gda")
        ds = bench.default_dataset()
        for par_row in (1, 2, 4):
            params = bench.default_params(ds)
            params["par_row"] = par_row
            design = bench.build(ds, **params)
            est = estimator.estimate_area(design)
            rep = synthesize(design)
            assert abs(est.alms - rep.alms) / rep.alms < 0.15, par_row
