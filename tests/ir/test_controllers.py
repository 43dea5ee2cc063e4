"""Tests for controller templates and counter chains."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import Design, Float32, IRError
from repro.ir import builder as hw
from repro.ir.controllers import CounterChain


class TestCounterChain:
    def test_counts_with_step(self):
        with Design("d"):
            cc = CounterChain(
                __import__("repro.ir.graph", fromlist=["current_design"]
                           ).current_design(),
                [(100, 10), (8, 1)],
            )
            assert cc.counts == [10, 8]
            assert cc.total_iterations == 80

    def test_ceil_division_of_extent(self):
        with Design("d"):
            from repro.ir.graph import current_design
            cc = CounterChain(current_design(), [(10, 3)])
            assert cc.counts == [4]

    def test_iters_match_dims(self):
        with Design("d"):
            from repro.ir.graph import current_design
            cc = CounterChain(current_design(), [(4, 1), (8, 2), (16, 4)])
            assert len(cc.iters) == 3

    def test_rejects_bad_dims(self):
        with Design("d"):
            from repro.ir.graph import current_design
            with pytest.raises(IRError):
                CounterChain(current_design(), [(0, 1)])
            with pytest.raises(IRError):
                CounterChain(current_design(), [])


class TestIterations:
    def test_pipe_iterations_divided_by_par(self):
        with Design("d"):
            with hw.sequential("top"):
                with hw.pipe("p", [(64, 1)], par=8) as p:
                    pass
        assert p.iterations == 8

    def test_loop_iterations_with_tile_step(self):
        with Design("d"):
            with hw.sequential("top"):
                with hw.metapipe("m", [(1024, 64)]) as m:
                    with hw.pipe("p", [(4, 1)]):
                        pass
        assert m.iterations == 16

    def test_counterless_controller_runs_once(self):
        with Design("d"):
            with hw.sequential("top") as top:
                with hw.pipe("p", [(4, 1)]):
                    pass
        assert top.iterations == 1

    def test_2d_loop_iterations(self):
        with Design("d"):
            with hw.sequential("top"):
                with hw.metapipe("m", [(128, 32), (64, 16)]) as m:
                    with hw.pipe("p", [(4, 1)]):
                        pass
        assert m.iterations == 16

    def test_iters_requires_chain(self):
        with Design("d"):
            with hw.sequential("top") as top:
                with hw.pipe("p", [(4, 1)]):
                    pass
        with pytest.raises(IRError):
            top.iters


class TestStageStructure:
    def test_stages_exclude_primitives(self):
        with Design("d"):
            with hw.sequential("top") as top:
                with hw.metapipe("m", [(8, 1)]) as m:
                    (i,) = m.iters
                    addr = i * 2  # address arithmetic in outer scope
                    with hw.pipe("p", [(4, 1)]):
                        pass
        assert [s.kind for s in m.stages] == ["Pipe"]
        assert len(m.body_prims) >= 1

    def test_pipe_body_drops_constants_and_keeps_order(self):
        from repro.ir.node import Const

        with Design("d"):
            with hw.sequential("top"):
                buf = hw.bram("buf", Float32, 16)
                with hw.pipe("p", [(16, 1)]) as p:
                    (i,) = p.iters
                    x = buf[i] * hw.const(2.0, Float32)
                    buf[i] = x + 1.0
        consts = [n.nid for n in p.body_prims if isinstance(n, Const)]
        assert len(consts) == 2
        assert [n.nid for n in p.body] == [
            n.nid for n in p.body_prims if n.nid not in consts]
        assert [n.nid for n in p.body] == sorted(n.nid for n in p.body)
        assert [type(n).__name__ for n in p.body] == [
            "LoadOp", "Prim", "Prim", "StoreOp"]

    def test_parallel_requires_pattern_map(self):
        with Design("d"):
            with hw.sequential("top"):
                with hw.parallel() as par:
                    with hw.pipe("a", [(4, 1)]):
                        pass
                    with hw.pipe("b", [(4, 1)]):
                        pass
        assert par.par == 1
        assert len(par.stages) == 2

    def test_reduce_pattern_recorded(self):
        with Design("d"):
            out = hw.arg_out("o", Float32)
            with hw.sequential("top"):
                acc = hw.reg("acc", Float32)
                with hw.pipe("p", [(8, 1)], accum=("add", acc)) as p:
                    p.returns(hw.const(1.0, Float32))
        assert p.pattern == "reduce"
        assert p.accum[0] == "add"

    def test_invalid_pattern_rejected(self):
        from repro.ir.controllers import Pipe

        with Design("d"):
            from repro.ir.graph import current_design
            with pytest.raises(IRError):
                Pipe(current_design(), "p", None, 1, "scan")


@given(
    extent=st.integers(1, 10_000),
    step=st.integers(1, 100),
)
def test_counter_counts_cover_extent(extent, step):
    with Design("d"):
        from repro.ir.graph import current_design
        cc = CounterChain(current_design(), [(extent, step)])
        (count,) = cc.counts
        assert (count - 1) * step < extent <= count * step


@given(
    par=st.sampled_from([1, 2, 4, 8]),
    factor=st.integers(1, 32),
)
def test_pipe_par_dividing_iterations_accepted(par, factor):
    total = par * factor
    with Design("d"):
        with hw.sequential("top"):
            with hw.pipe("p", [(total, 1)], par=par) as p:
                pass
    assert p.iterations * par == total
