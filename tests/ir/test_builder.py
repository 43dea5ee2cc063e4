"""Tests for the embedded DSL builder and design construction."""

import pytest

from repro.ir import (
    BRAM,
    Bool,
    Const,
    Design,
    Float32,
    IRError,
    Int32,
    MetaPipe,
    Parallel,
    Pipe,
    Prim,
    Sequential,
    current_design,
)
from repro.ir import builder as hw


def build_minimal(n=64, tile=16, par=2, metapipe=True):
    with Design("mini") as d:
        a = hw.offchip("a", Float32, n)
        out = hw.arg_out("out", Float32)
        with hw.sequential("top"):
            with hw.loop(
                "tiles", [(n, tile)], metapipe_=metapipe, accum=("add", out)
            ) as tiles:
                (i,) = tiles.iters
                aT = hw.bram("aT", Float32, tile)
                hw.tile_load(a, aT, (i,), (tile,), par=par)
                acc = hw.reg("acc", Float32)
                with hw.pipe("body", [(tile, 1)], par=par,
                             accum=("add", acc)) as body:
                    (j,) = body.iters
                    body.returns(aT[j] * 2.0)
                tiles.returns(acc)
    return d


class TestScoping:
    def test_no_active_design_raises(self):
        with pytest.raises(IRError):
            current_design()

    def test_active_design_inside_with(self):
        with Design("d") as d:
            assert current_design() is d

    def test_nodes_register_in_order(self):
        d = build_minimal()
        nids = [n.nid for n in d.nodes]
        assert nids == sorted(nids)

    def test_finalize_runs_on_exit(self):
        d = build_minimal()
        assert d.finalized

    def test_top_controller_single_root(self):
        d = build_minimal()
        assert isinstance(d.root, Sequential)

    def test_controllers_nested_correctly(self):
        d = build_minimal(metapipe=True)
        kinds = [c.kind for c in d.controllers()]
        assert kinds[0] == "Sequential"
        assert "MetaPipe" in kinds
        assert "Pipe" in kinds
        assert "TileLd" in kinds

    def test_loop_toggle_selects_controller_kind(self):
        d_mp = build_minimal(metapipe=True)
        d_seq = build_minimal(metapipe=False)
        assert any(isinstance(c, MetaPipe) for c in d_mp.controllers())
        assert not any(isinstance(c, MetaPipe) for c in d_seq.controllers())


class TestOperatorOverloading:
    def test_arith_creates_prims(self):
        with Design("ops") as d:
            aT = hw.bram("aT", Float32, 8)
            with hw.pipe("p", [(8, 1)]) as p:
                (j,) = p.iters
                v = aT[j] + aT[j] * 2.0 - 1.0
                aT[j] = v
        ops = [n.op for n in d.nodes if isinstance(n, Prim)]
        assert "add" in ops and "mul" in ops and "sub" in ops

    def test_reverse_operators(self):
        with Design("rev") as d:
            aT = hw.bram("aT", Float32, 8)
            with hw.pipe("p", [(8, 1)]) as p:
                (j,) = p.iters
                v = 1.0 / aT[j]
                aT[j] = 2.0 - v
        ops = [n.op for n in d.nodes if isinstance(n, Prim)]
        assert ops.count("div") == 1 and ops.count("sub") == 1

    def test_comparison_yields_bool(self):
        with Design("cmp"):
            aT = hw.bram("aT", Float32, 8)
            with hw.pipe("p", [(8, 1)]) as p:
                (j,) = p.iters
                c = aT[j] < 0.5
                assert c.tp == Bool
                aT[j] = hw.mux(c, 0.0, 1.0)

    def test_constants_typed_like_operands(self):
        with Design("const"):
            aT = hw.bram("aT", Int32, 8)
            with hw.pipe("p", [(8, 1)]) as p:
                (j,) = p.iters
                v = aT[j] + 3
                assert v.tp == Int32
                aT[j] = v

    def test_mixed_family_arithmetic_rejected(self):
        from repro.ir import TypeError_

        with pytest.raises(TypeError_):
            with Design("bad"):
                aT = hw.bram("aT", Float32, 8)
                bT = hw.bram("bT", Int32, 8)
                with hw.pipe("p", [(8, 1)]) as p:
                    (j,) = p.iters
                    aT[j] = aT[j] + bT[j]

    def test_unary_helpers(self):
        with Design("un") as d:
            aT = hw.bram("aT", Float32, 8)
            with hw.pipe("p", [(8, 1)]) as p:
                (j,) = p.iters
                aT[j] = hw.sqrt(hw.exp(hw.abs_(aT[j])))
        ops = [n.op for n in d.nodes if isinstance(n, Prim)]
        assert ops == ["abs", "exp", "sqrt"]


class TestStructuralErrors:
    def test_pipe_cannot_contain_controllers(self):
        with pytest.raises(IRError, match="primitive"):
            with Design("bad"):
                with hw.sequential("top"):
                    with hw.pipe("p", [(8, 1)]):
                        with hw.pipe("inner", [(4, 1)]):
                            pass

    def test_par_must_divide_iterations(self):
        with pytest.raises(IRError, match="divide"):
            with Design("bad"):
                with hw.sequential("top"):
                    with hw.pipe("p", [(10, 1)], par=3):
                        pass

    def test_empty_parallel_rejected(self):
        with pytest.raises(IRError):
            with Design("bad"):
                with hw.sequential("top"):
                    with hw.parallel():
                        pass

    def test_accum_without_result_rejected(self):
        with pytest.raises(IRError, match="result"):
            with Design("bad"):
                out = hw.arg_out("out", Float32)
                with hw.sequential("top"):
                    with hw.metapipe("m", [(8, 1)], accum=("add", out)):
                        with hw.pipe("p", [(8, 1)]):
                            pass

    def test_mem_scope_violation_detected(self):
        with pytest.raises(IRError, match="outside"):
            with Design("bad"):
                with hw.sequential("top"):
                    with hw.parallel():
                        with hw.sequential("s1"):
                            local = hw.bram("local", Float32, 8)
                            with hw.pipe("w", [(8, 1)]) as w:
                                (j,) = w.iters
                                local[j] = 1.0
                        with hw.sequential("s2"):
                            with hw.pipe("r", [(8, 1)]) as r:
                                (j,) = r.iters
                                # Reads a buffer scoped to a sibling branch.
                                local[j]

    def test_bad_index_count(self):
        with pytest.raises(IRError, match="indices"):
            with Design("bad"):
                m = hw.bram("m", Float32, 4, 4)
                with hw.pipe("p", [(4, 1)]) as p:
                    (j,) = p.iters
                    m[j]  # 2-D memory, 1 index

    def test_tile_too_large_for_bram(self):
        with pytest.raises(IRError, match="fit"):
            with Design("bad"):
                a = hw.offchip("a", Float32, 64)
                small = hw.bram("small", Float32, 8)
                with hw.sequential("top"):
                    hw.tile_load(a, small, (0,), (16,))


class TestStats:
    def test_stats_counts(self):
        d = build_minimal()
        stats = d.stats()
        assert stats["pipes"] == 1
        assert stats["tile_transfers"] == 1
        assert stats["offchip_mems"] == 1
        assert stats["controllers"] >= 3

    def test_total_bram_words_counts_double_buffers(self):
        d = build_minimal(metapipe=True)
        aT = next(m for m in d.onchip_mems() if m.name == "aT")
        assert aT.double_buffered
        assert d.total_bram_words() >= 2 * 16

    def test_const_nodes_present(self):
        d = build_minimal()
        assert any(isinstance(n, Const) for n in d.nodes)


class TestParamBindings:
    def test_plain_ints_record_nothing(self):
        assert build_minimal().bindings == {}

    def test_params_record_the_fields_they_feed(self):
        d = build_minimal(tile=hw.Param(16, "tile"), par=hw.Param(2, "par"))
        bound = {
            (d.nodes[nid].kind, path): name
            for (nid, path), name in d.bindings.items()
        }
        assert bound[("BRAM", ("dims", 0))] == "tile"
        assert bound[("TileLd", ("sizes", 0))] == "tile"
        assert bound[("TileLd", ("par",))] == "par"
        assert bound[("Pipe", ("par",))] == "par"
        # The tile loop steps by `tile`; the body pipe counts to `tile`.
        assert bound[("CounterChain", ("dims", 0, 1))] == "tile"
        assert bound[("CounterChain", ("dims", 0, 0))] == "tile"

    def test_derived_values_stay_unrecorded(self):
        tile = hw.Param(16, "tile")
        d = build_minimal(tile=tile + 0)  # arithmetic yields a plain int
        assert d.bindings == {}
