"""Tests for the execution-timeline layout."""

from repro.apps import get_benchmark
from repro.ir import Design, Float32
from repro.ir import builder as hw
from repro.sim import build_timeline


def two_stage(metapipe: bool):
    with Design("tl") as d:
        a = hw.offchip("a", Float32, 4096)
        with hw.sequential("top"):
            with hw.loop("loop", [(4096, 256)], metapipe_=metapipe) as lp:
                (i,) = lp.iters
                buf = hw.bram("buf", Float32, 256)
                hw.tile_load(a, buf, (i,), (256,), par=4, name="load")
                with hw.pipe("work", [(256, 1)]) as p:
                    (j,) = p.iters
                    buf[j] = buf[j] * 2.0
    return d


def load_and_work(metapipe: bool):
    """The laid-out intervals of ``two_stage``'s load and Pipe."""
    tl = build_timeline(two_stage(metapipe))
    by_name = {iv.name: iv for iv in tl.intervals}
    return by_name["load"], by_name["work"]


class TestLayout:
    def test_metapipe_stages_overlap(self):
        load, work = load_and_work(metapipe=True)
        assert load.start < work.end and work.start < load.end

    def test_sequential_stages_do_not_overlap(self):
        load, work = load_and_work(metapipe=False)
        assert load.end <= work.start

    def test_parallel_children_share_start(self):
        bench = get_benchmark("dotproduct")
        d = bench.build({"n": 65536}, tile=4096, par_load=8, par_inner=8,
                        metapipe=True)
        tl = build_timeline(d)
        loads = [iv for iv in tl.intervals if iv.name.startswith("tld")]
        assert len(loads) == 2
        assert loads[0].start == loads[1].start

    def test_depths_reflect_nesting(self):
        tl = build_timeline(two_stage(metapipe=True))
        by_name = {iv.name: iv for iv in tl.intervals}
        assert by_name["top"].depth < by_name["loop"].depth < \
            by_name["work"].depth

    def test_makespan_positive_and_covering(self):
        tl = build_timeline(two_stage(metapipe=True))
        assert tl.makespan > 0
        assert all(iv.end <= tl.makespan + 1e-9 for iv in tl.intervals)

    def test_durations_nonnegative(self):
        bench = get_benchmark("gda")
        ds = bench.small_dataset()
        d = bench.build(ds, **bench.default_params(ds))
        tl = build_timeline(d)
        assert all(iv.duration >= 0 for iv in tl.intervals)
