"""Hybrid area estimation (paper Section IV-B2).

Two-step approach:

1. **Raw counting** — walk the design's IR and sum the characterized
   template models for every node, including delay-balancing resources
   computed from an ASAP schedule of each Pipe body (slack times path
   width, registers below a threshold, BRAM delay lines above it).

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
from typing import Dict, List

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design, delay_slacks, replication
from ..ir.memories import BRAM, OnChipMemory, PriorityQueue, Reg
from ..ir.memops import TileTransfer
from ..ir.node import Const, Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp
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

    def add(self, counts: Counts) -> None:
        """Accumulate one template's counts."""
        self.counts.add(counts)


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
    """Sum characterized template models over every node in the design.

    Outer-loop parallelization replicates hardware, so every template's
    counts are scaled by the replication factor of its scope.

    ``models`` is either the :class:`TemplateModels` themselves or a
    memoizing :class:`~repro.estimation.cache.CachedTemplateModels` view
    of them; the walk is the same and so are the results, bit for bit.
    """
    raw = RawArea()
    device = models.device
    for ctrl in design.controllers():
        scoped = _ScopedRawArea(raw, replication(ctrl))
        _count_controller(ctrl, models, scoped)
    for mem in design.onchip_mems():
        scoped = _ScopedRawArea(raw, replication(mem))
        _count_memory(mem, models, scoped, device)
    for node in design.nodes:
        if isinstance(node, Value) and not isinstance(node, Const):
            raw.wire_bits += node.tp.bits * max(node.width, 1) * replication(node)
    return raw


class _ScopedRawArea:
    """RawArea view scaling every contribution by a replication factor."""

    def __init__(self, raw: RawArea, factor: int) -> None:
        self._raw = raw
        self._factor = factor

    def add(self, counts: Counts) -> None:
        if self._factor != 1:
            counts = counts.scaled(self._factor)
        self._raw.add(counts)


# -- per-template counting -------------------------------------------------------


def _count_controller(
    ctrl: Controller, models: TemplateModels, raw: RawArea
) -> None:
    if ctrl.cchain is not None:
        raw.add(
            models.predict(
                "counter", {"ndims": len(ctrl.cchain.dims), "par": ctrl.par}
            ),
        )
    if isinstance(ctrl, Pipe):
        _count_pipe(ctrl, models, raw)
    elif isinstance(ctrl, TileTransfer):
        raw.add(
            models.predict(
                "tile_transfer",
                {
                    "bits": ctrl.offchip.tp.bits,
                    "par": ctrl.par,
                    "num_commands": ctrl.num_commands,
                },
            ),
        )
    elif isinstance(ctrl, MetaPipe):
        raw.add(models.predict("metapipe", {"n": len(ctrl.stages)}))
        _count_outer_prims(ctrl, models, raw)
        _count_accum(ctrl, models, raw)
    elif isinstance(ctrl, Parallel):
        raw.add(models.predict("parallel", {"n": len(ctrl.stages)}))
    elif isinstance(ctrl, Sequential):
        raw.add(models.predict("sequential", {"n": len(ctrl.stages)}))
        _count_outer_prims(ctrl, models, raw)
        _count_accum(ctrl, models, raw)


def _count_outer_prims(ctrl: Controller, models: TemplateModels, raw: RawArea) -> None:
    for node in ctrl.body_prims:
        if isinstance(node, Prim):
            raw.add(models.predict_prim(node.op, node.tp, node.width))


def _count_accum(ctrl: Controller, models: TemplateModels, raw: RawArea) -> None:
    if ctrl.accum is None:
        return
    op, target = ctrl.accum
    tp = target.tp
    if isinstance(target, BRAM):
        width = target.banks
        raw.add(models.predict_prim(op, tp, width))
        raw.add(
            models.predict(
                "load", {"bits": tp.bits, "width": width, "banks": target.banks}
            ),
        )
        raw.add(
            models.predict(
                "store", {"bits": tp.bits, "width": width, "banks": target.banks}
            ),
        )
    else:
        raw.add(models.predict_prim(op, tp, 1))


def _count_pipe(pipe: Pipe, models: TemplateModels, raw: RawArea) -> None:
    body = [n for n in pipe.body_prims if not isinstance(n, Const)]
    raw.add(models.predict("pipe", {"n": len(body)}))

    fused_adds = _predict_fma_fusions(body)
    for node in body:
        if isinstance(node, Prim):
            counts = models.predict_prim(node.op, node.tp, node.width)
            if node.nid in fused_adds:
                counts = counts.scaled(EST_FMA_DISCOUNT)
            raw.add(counts)
        elif isinstance(node, LoadOp):
            raw.add(
                models.predict(
                    "load",
                    {
                        "bits": node.tp.bits,
                        "width": node.width,
                        "banks": node.mem.banks,
                    },
                ),
            )
        elif isinstance(node, StoreOp):
            raw.add(
                models.predict(
                    "store",
                    {
                        "bits": node.mem.tp.bits,
                        "width": node.width,
                        "banks": node.mem.banks,
                    },
                ),
            )
    _count_reduce_tree(pipe, models, raw)
    _count_delays(body, raw)


def _count_reduce_tree(pipe: Pipe, models: TemplateModels, raw: RawArea) -> None:
    if pipe.accum is None or not isinstance(pipe.result, Value):
        return
    op, _ = pipe.accum
    tp = pipe.result.tp
    tree_ops = max(pipe.par - 1, 0)
    if tree_ops:
        counts = models.predict_prim(op, tp, tree_ops)
        if tp.is_float and op in ("add", "sub"):
            counts = counts.scaled(EST_TREE_DISCOUNT)
        raw.add(counts)
    raw.add(models.predict_prim(op, tp, 1))


def _predict_fma_fusions(body: List[Node]) -> set:
    consumers: Dict[int, List[Node]] = {}
    for node in body:
        for inp in getattr(node, "inputs", []):
            consumers.setdefault(inp.nid, []).append(node)
    fused = set()
    for node in body:
        if not (isinstance(node, Prim) and node.op == "mul" and node.tp.is_float):
            continue
        outs = consumers.get(node.nid, [])
        if len(outs) == 1 and isinstance(outs[0], Prim):
            if outs[0].op in ("add", "sub") and outs[0].tp.is_float:
                fused.add(outs[0].nid)
    return fused


def delay_counts(bits: int, slack: int) -> Counts:
    """Balancing ``slack`` cycles of a ``bits``-wide edge (slack > 0).

    Short delays are shift registers; beyond ``EST_DELAY_BRAM_THRESHOLD``
    cycles the delay line moves into block RAM.
    """
    if slack > EST_DELAY_BRAM_THRESHOLD:
        return Counts(brams=max(1.0, bits * slack / (20 * 1024 * 0.8)))
    return Counts(regs=bits * slack)


def _count_delays(body: List[Node], raw: RawArea) -> None:
    """Delay-balancing resources from ASAP slack (paper Section IV-B2)."""
    for inp, slack in delay_slacks(body):
        bits = inp.tp.bits * max(inp.width, 1)
        raw.add(delay_counts(bits, slack))


def _count_memory(
    mem: OnChipMemory, models: TemplateModels, raw: RawArea, device
) -> None:
    if isinstance(mem, BRAM):
        blocks = bram_blocks(
            mem.size, mem.banks, mem.tp.bits, mem.double_buffered, device
        )
        counts = models.predict(
            "bram",
            {
                "banks": mem.banks,
                "bits": mem.tp.bits,
                "double": mem.double_buffered,
            },
        )
        counts.brams = blocks
        raw.add(counts)
    elif isinstance(mem, PriorityQueue):
        raw.add(
            models.predict("pqueue", {"depth": mem.depth, "bits": mem.tp.bits}),
        )
    elif isinstance(mem, Reg):
        raw.add(
            models.predict(
                "reg", {"bits": mem.tp.bits, "double": mem.double_buffered}
            ),
        )


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

    ``models`` is as for :func:`raw_area`; ``corrections`` is a
    :class:`repro.estimation.train.CorrectionModels`.
    """
    from .features import design_features  # local import to avoid cycle

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
