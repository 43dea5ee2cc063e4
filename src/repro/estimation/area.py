"""Hybrid area estimation (paper Section IV-B2).

Two-step approach:

1. **Raw counting** — the estimator's walk (:mod:`repro.estimation.walk`)
   sums the characterized template models over the design, including
   delay-balancing resources from an ASAP schedule of each Pipe body
   (slack times path width; registers below a threshold, BRAM delay
   lines above it). This module holds its constants and lookups.

2. **Design-level corrections** — feed the raw counts into the trained
   neural networks to estimate routing LUTs, duplicated registers, and
   unavailable LUTs; estimate duplicated block RAMs as a linear function of
   routing LUTs; then apply the LUT-packing model and the two-registers-
   per-compute-unit rule to obtain final ALM, DSP, and BRAM counts.

The estimator predicts toolchain optimizations (floating-point multiply-add
fusion, reduction-tree fusion) with fixed heuristics; mispredictions of
these are a real error source, as the paper observes for gemm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .. import obs
from ..ir.graph import Design
from ..target.board import MAIA, Board
from .characterize import TemplateModels
from .counts import Counts

# Heuristic predictions of toolchain fusion optimizations. These are the
# estimator's guesses; the toolchain's true behavior differs slightly.
EST_FMA_DISCOUNT = 0.72
EST_TREE_DISCOUNT = 0.75
# Delay (in cycles) above which the estimator puts a balancing delay line
# in block RAM rather than shift registers.
EST_DELAY_BRAM_THRESHOLD = 16


@dataclass
class RawArea:
    """Output of the raw-counting pass."""

    counts: Counts = field(default_factory=Counts)
    wire_bits: float = 0.0


@dataclass
class AreaEstimate:
    """Final area estimate with the correction breakdown."""

    alms: int
    dsps: int
    brams: int
    regs: int
    raw: Counts
    routing_luts: float
    duplicated_regs: float
    duplicated_brams: float
    unavailable_luts: float

    def utilization(self, device) -> Dict[str, float]:
        """Estimated utilization fraction per device resource class."""
        return {
            "alms": self.alms / device.alms,
            "dsps": self.dsps / device.dsps,
            "brams": self.brams / device.bram_blocks,
        }

    def fits(self, device) -> bool:
        """Whether the estimated design fits on ``device``."""
        return (
            self.alms <= device.alms
            and self.dsps <= device.dsps
            and self.brams <= device.bram_blocks
        )


def raw_area(design: Design, models: TemplateModels) -> RawArea:
    """The walk's template terms and wire bits on the design's numbers.

    Outer-loop parallelization replicates hardware, so every template's
    counts are scaled by the replication factor of its scope. ``models``
    is the :class:`TemplateModels` or a memoizing
    :class:`~repro.estimation.cache.CachedTemplateModels` view of them;
    the results are the same, bit for bit.
    """
    from .walk import Numbers, area_terms, wire_bits  # the walk imports us

    numbers = Numbers(models)
    area_terms(numbers, design)
    return RawArea(numbers.raw(), wire_bits(numbers, design))


def delay_counts(bits: int, slack: int) -> Counts:
    """Balancing ``slack`` cycles of a ``bits``-wide edge (slack > 0).

    Short delays are shift registers; beyond ``EST_DELAY_BRAM_THRESHOLD``
    cycles the delay line moves into block RAM.
    """
    if slack > EST_DELAY_BRAM_THRESHOLD:
        return Counts(brams=max(1.0, bits * slack / (20 * 1024 * 0.8)))
    return Counts(regs=bits * slack)


def bram_blocks(size: int, banks: int, bits: int, double: bool, device) -> float:
    """M20K blocks of a banked (and maybe double-buffered) BRAM."""
    words_per_bank = -(-size // max(banks, 1))
    blocks = banks * device.bram_blocks_for(words_per_bank, bits)
    if double:
        blocks *= 2
    return float(blocks)


# -- hybrid estimate ---------------------------------------------------------------


def _finalize_area(
    raw_counts: Counts,
    device,
    routing: float,
    dup_regs: float,
    unavailable: float,
    dup_brams: float,
) -> AreaEstimate:
    """LUT packing + register overflow: corrections -> final AreaEstimate.

    Shared by the per-design path and the class-plan path
    (:mod:`repro.estimation.plan`) so both produce bit-identical results
    from the same corrections.
    """
    # Routing LUTs are assumed always packable (paper Section IV-B2).
    packable = raw_counts.luts_packable + routing
    unpackable = raw_counts.luts_unpackable
    rate = device.lut_pack_rate
    lut_units = (
        unpackable + packable * (1.0 - rate) + packable * rate / 2.0
    )
    lut_units += unavailable

    total_regs = raw_counts.regs + dup_regs
    extra_reg_alms = max(
        0.0, total_regs - device.regs_per_alm * lut_units
    )
    extra_reg_alms /= device.regs_per_alm
    alms = lut_units + extra_reg_alms

    return AreaEstimate(
        alms=int(round(alms)),
        dsps=int(round(raw_counts.dsps)),
        brams=int(round(raw_counts.brams + dup_brams)),
        regs=int(round(total_regs)),
        raw=raw_counts,
        routing_luts=routing,
        duplicated_regs=dup_regs,
        duplicated_brams=dup_brams,
        unavailable_luts=unavailable,
    )


def hybrid_area(
    design: Design,
    models: TemplateModels,
    corrections,
    board: Board = MAIA,
) -> AreaEstimate:
    """Raw counts + NN corrections + LUT packing -> final area estimate.

    The per-design path: :func:`raw_area` and
    :func:`~repro.estimation.features.design_features` run the walk on
    the design's numbers, both looked up per call (perfbench wraps them).
    Class plans run the same walk on symbols and share
    :func:`_finalize_area`. ``models`` is as for :func:`raw_area`;
    ``corrections`` is a :class:`repro.estimation.train.CorrectionModels`.
    """
    from .features import design_features  # per call, like raw_area

    device = board.device
    with obs.span("area", design=design.name):
        with obs.span("area.raw"):
            raw = raw_area(design, models)
            feats = design_features(design, raw.counts, raw.wire_bits)

        # The NN corrections are the one non-analytical estimation stage;
        # timed separately so Table IV decomposes into model vs NN time.
        with obs.span("area.nn"):
            routing, dup_regs, unavailable, dup_brams = (
                float(values[0])
                for values in corrections.predict_batch([feats], [raw.counts])
            )

        return _finalize_area(
            raw.counts, device, routing, dup_regs, unavailable, dup_brams
        )
