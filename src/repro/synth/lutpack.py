"""LUT packing pass (paper Section IV-A).

Stratix-class ALMs contain a fracturable 8-input LUT usable as two
independent smaller functions. The placement tool packs pairs of small
("packable") functions into single ALMs; the paper reports about 80% of
functions packed in pairs, a ~40% reduction in used LUT units.
"""

from __future__ import annotations

# Standard deviation of the achieved pack rate around the nominal one.
PACK_RATE_SIGMA = 0.015


def pack_luts(
    packable: float,
    unpackable: float,
    pack_rate: float,
    rng,
) -> tuple:
    """Return (lut_units, achieved_pack_rate) after pairwise packing."""
    rate = pack_rate + float(rng.normal(0.0, PACK_RATE_SIGMA))
    rate = min(max(rate, 0.55), 0.95)
    units = unpackable + packable * (1.0 - rate) + packable * rate / 2.0
    return units, rate
