"""Unit tests for the DHDL type system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.types import (
    Bit,
    Bool,
    FixPt,
    Float32,
    Float64,
    FltPt,
    Index,
    Int32,
    TypeError_,
    common_type,
)


class TestFixPt:
    def test_bits_is_int_plus_frac(self):
        assert FixPt(True, 16, 16).bits == 32

    def test_int32_alias(self):
        assert Int32 == FixPt(True, 32, 0)
        assert Int32.bits == 32

    def test_signedness_recorded(self):
        assert not Index.signed
        assert Int32.signed

    def test_rejects_zero_width(self):
        with pytest.raises(TypeError_):
            FixPt(True, 0, 0)

    def test_rejects_negative_widths(self):
        with pytest.raises(TypeError_):
            FixPt(True, -1, 4)

    def test_is_fixed_flags(self):
        assert Int32.is_fixed
        assert not Int32.is_float
        assert not Int32.is_bit

    def test_short_name_encodes_layout(self):
        assert FixPt(True, 16, 16).short_name() == "fixs16_16"
        assert FixPt(False, 32, 0).short_name() == "fixu32_0"


class TestFltPt:
    def test_float32_is_ieee_single(self):
        assert Float32.mant_bits == 24
        assert Float32.exp_bits == 8
        assert Float32.bits == 32

    def test_float64_is_ieee_double(self):
        assert Float64.bits == 64

    def test_rejects_too_narrow(self):
        with pytest.raises(TypeError_):
            FltPt(1, 8)

    def test_is_float_flags(self):
        assert Float32.is_float
        assert not Float32.is_fixed


class TestBit:
    def test_single_bit(self):
        assert Bool.bits == 1
        assert Bool.is_bit

    def test_equality(self):
        assert Bit() == Bool


class TestCommonType:
    def test_identical_types(self):
        assert common_type(Float32, Float32) == Float32

    def test_wider_float_wins(self):
        assert common_type(Float32, Float64) == Float64
        assert common_type(Float64, Float32) == Float64

    def test_fixed_joins_fieldwise(self):
        a = FixPt(True, 16, 8)
        b = FixPt(False, 8, 16)
        joined = common_type(a, b)
        assert joined == FixPt(True, 16, 16)

    def test_signed_dominates(self):
        assert common_type(FixPt(True, 8, 0), FixPt(False, 8, 0)).signed

    def test_mixed_families_rejected(self):
        with pytest.raises(TypeError_):
            common_type(Float32, Int32)

    def test_bits_join(self):
        assert common_type(Bool, Bool) == Bool


@given(
    int_bits=st.integers(1, 64),
    frac_bits=st.integers(0, 64),
    signed=st.booleans(),
)
def test_fixpt_bits_property(int_bits, frac_bits, signed):
    tp = FixPt(signed, int_bits, frac_bits)
    assert tp.bits == int_bits + frac_bits
    assert tp.bits >= 1


@given(
    a_int=st.integers(1, 64), a_frac=st.integers(0, 32),
    b_int=st.integers(1, 64), b_frac=st.integers(0, 32),
)
def test_common_type_is_commutative_and_wide_enough(a_int, a_frac, b_int, b_frac):
    a, b = FixPt(True, a_int, a_frac), FixPt(True, b_int, b_frac)
    joined = common_type(a, b)
    assert joined == common_type(b, a)
    assert joined.bits >= max(a.bits, b.bits) - min(a_frac, b_frac)
    assert joined.int_bits >= max(a_int, b_int)


@given(
    m=st.integers(2, 64), e=st.integers(2, 16),
)
def test_fltpt_join_idempotent(m, e):
    tp = FltPt(m, e)
    assert common_type(tp, tp) == tp
