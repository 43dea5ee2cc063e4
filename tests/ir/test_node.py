"""Tests for node fundamentals: identity, scope, typing rules."""

import pytest

from repro.ir import (
    Bool,
    Const,
    Design,
    Float32,
    IRError,
    Index,
    Int32,
    Prim,
    TypeError_,
)
from repro.ir import builder as hw
from repro.ir.node import result_type


class TestIdentity:
    def test_node_ids_unique_and_dense(self):
        with Design("d") as d:
            hw.offchip("a", Float32, 8)
            with hw.sequential("top"):
                with hw.pipe("p", [(8, 1)]):
                    hw.const(1.0)
        ids = [n.nid for n in d.nodes]
        assert ids == list(range(len(ids)))

    def test_ancestors_innermost_first(self):
        with Design("d"):
            with hw.sequential("top") as top:
                with hw.metapipe("m", [(8, 1)]) as m:
                    with hw.pipe("p", [(8, 1)]) as p:
                        node = hw.const(2.0)
        assert node.ancestors() == [p, m, top]

    def test_top_level_node_has_no_parent(self):
        with Design("d"):
            mem = hw.offchip("a", Float32, 8)
        assert mem.parent is None
        assert mem.ancestors() == []

    def test_kind_names(self):
        with Design("d"):
            mem = hw.bram("b", Float32, 4)
            with hw.sequential("top") as top:
                with hw.pipe("p", [(4, 1)]):
                    pass
        assert mem.kind == "BRAM"
        assert top.kind == "Sequential"


class TestConstants:
    def test_int_constant_defaults_to_index(self):
        with Design("d") as d:
            c = d.as_value(7)
        assert isinstance(c, Const) and c.tp == Index

    def test_bool_constant(self):
        with Design("d") as d:
            c = d.as_value(True)
        assert c.tp == Bool and c.value is True

    def test_float_constant_in_fixed_context(self):
        from repro.ir import FixPt

        with Design("d") as d:
            c = d.as_value(0.5, like=FixPt(True, 8, 8))
        assert c.tp == FixPt(True, 8, 8)

    def test_unconvertible_rejected(self):
        with Design("d") as d:
            with pytest.raises(IRError):
                d.as_value("a string")

    def test_cross_design_input_rejected(self):
        with Design("d1") as d1:
            a = d1.as_value(1.0)
        with Design("d2") as d2:
            b = d2.as_value(2.0)
            with pytest.raises(IRError, match="different design"):
                d2.add_binop("add", a, b)


class TestResultTypes:
    def test_comparisons_produce_bool(self):
        for op in ("lt", "gt", "le", "ge", "eq", "ne"):
            assert result_type(op, Float32, Float32) == Bool

    def test_logic_produces_bool(self):
        assert result_type("and", Bool, Bool) == Bool
        assert result_type("or", Bool, Bool) == Bool

    def test_arith_joins(self):
        assert result_type("add", Int32, Index).bits >= 32

    def test_comparison_still_checks_families(self):
        with pytest.raises(TypeError_):
            result_type("lt", Float32, Int32)


class TestPrimConstruction:
    def test_arity_enforced(self):
        with Design("d") as d:
            a = d.as_value(1.0)
            with pytest.raises(IRError, match="expects 2"):
                d.add_prim("add", [a], Float32)

    def test_unknown_op_rejected(self):
        with Design("d") as d:
            a = d.as_value(1.0)
            with pytest.raises(IRError, match="unknown"):
                d.add_prim("fma", [a, a], Float32)

    def test_latency_metadata(self):
        with Design("d") as d:
            a = d.as_value(1.0)
            node = d.add_binop("mul", a, a)
        assert isinstance(node, Prim)
        assert node.latency == 6  # float multiply

    def test_fixed_op_latency_differs(self):
        with Design("d") as d:
            a = d.as_value(1, like=Int32)
            node = d.add_binop("add", a, a)
        assert node.latency == 1

    def test_mux_requires_bool_condition(self):
        from repro.ir.primitives import make_mux

        with Design("d") as d:
            a = d.as_value(1.0)
            with pytest.raises(IRError, match="single bit"):
                make_mux(d, a, a, a)
