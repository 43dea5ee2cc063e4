"""Hardware value types for DHDL.

DHDL supports variable bit-width fixed-point types, variable precision
floating-point types, and single-bit types, with associated type checking
(paper Section III-B). Types determine datapath widths, which drive both
area models (wider adders cost more ALMs) and on-chip memory sizing.
"""

from __future__ import annotations

from dataclasses import dataclass


class TypeError_(Exception):
    """Raised when DHDL type checking fails."""


@dataclass(frozen=True)
class HWType:
    """Base class for all DHDL hardware types."""

    @property
    def bits(self) -> int:
        raise NotImplementedError

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_fixed(self) -> bool:
        return False

    @property
    def is_bit(self) -> bool:
        return False

    def short_name(self) -> str:
        """Compact label used in IR printouts (e.g. ``flt24_8``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixPt(HWType):
    """Fixed-point type with sign, integer and fractional bit widths.

    ``FixPt(True, 32, 0)`` is a signed 32-bit integer; ``FixPt(True, 16, 16)``
    is a signed Q16.16 fixed-point value.
    """

    signed: bool = True
    int_bits: int = 32
    frac_bits: int = 0

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise TypeError_("bit widths must be non-negative")
        if self.int_bits + self.frac_bits == 0:
            raise TypeError_("fixed-point type must have at least one bit")

    @property
    def bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def is_fixed(self) -> bool:
        return True

    def short_name(self) -> str:
        """Compact label, e.g. ``fixs16_16``."""
        sign = "s" if self.signed else "u"
        return f"fix{sign}{self.int_bits}_{self.frac_bits}"


@dataclass(frozen=True)
class FltPt(HWType):
    """Floating-point type with mantissa (incl. implicit bit) and exponent widths.

    ``FltPt(24, 8)`` is IEEE-754 single precision; ``FltPt(53, 11)`` is double.
    """

    mant_bits: int = 24
    exp_bits: int = 8

    def __post_init__(self) -> None:
        if self.mant_bits < 2 or self.exp_bits < 2:
            raise TypeError_("floating point type too narrow")

    @property
    def bits(self) -> int:
        # Sign bit is part of the mantissa field (implicit leading 1).
        return self.mant_bits + self.exp_bits

    @property
    def is_float(self) -> bool:
        return True

    def short_name(self) -> str:
        """Compact label, e.g. ``flt24_8``."""
        return f"flt{self.mant_bits}_{self.exp_bits}"


@dataclass(frozen=True)
class Bit(HWType):
    """Single-bit (boolean) type."""

    @property
    def bits(self) -> int:
        return 1

    @property
    def is_bit(self) -> bool:
        return True

    def short_name(self) -> str:
        """Compact label: ``bit``."""
        return "bit"


# Common type aliases used throughout the benchmarks.
Float32 = FltPt(24, 8)
Float64 = FltPt(53, 11)
Int32 = FixPt(True, 32, 0)
Int64 = FixPt(True, 64, 0)
UInt32 = FixPt(False, 32, 0)
Index = FixPt(False, 32, 0)
Bool = Bit()


def common_type(a: HWType, b: HWType) -> HWType:
    """Return the joined type of two operand types for a binary operation.

    Mixed float/fixed arithmetic is rejected (DHDL requires explicit
    conversion nodes); within a family the wider type wins.
    """
    if a == b:
        return a
    if a.is_bit and b.is_bit:
        return Bool
    if a.is_float and b.is_float:
        return a if a.bits >= b.bits else b
    if a.is_fixed and b.is_fixed:
        fa, fb = a, b
        assert isinstance(fa, FixPt) and isinstance(fb, FixPt)
        return FixPt(
            fa.signed or fb.signed,
            max(fa.int_bits, fb.int_bits),
            max(fa.frac_bits, fb.frac_bits),
        )
    raise TypeError_(
        f"no common type between {a.short_name()} and {b.short_name()}; "
        "insert an explicit conversion"
    )
