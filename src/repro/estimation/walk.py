"""The estimator's one walk over a design (paper Section IV-B).

The analytical model is written here once: the recursive cycle formulas
with their DRAM contention; the raw template terms of controllers, Pipe
bodies, accumulators, reduce trees, delay lines and memories; the wire
bits and the 11 features of the neural corrections. It runs on a
*backend* that does the arithmetic and reads the IR:

* :class:`Numbers` computes with Python numbers read off a finalized
  design — the per-design estimate (``estimate_cycles``, ``raw_area``,
  ``design_features``) that training and ``--no-cache`` use;
* :class:`repro.estimation.plan._Symbols` computes with symbols and
  emits a class plan's source, which prices every point of a structural
  class from its parameters, bit for bit as the numbers would.

The protocol a backend implements:

* arithmetic: ``const``, ``add``, ``mul``, ``max``. With more than two
  operands ``add`` and ``mul`` take integers, which a backend may
  regroup; floats are added two at a time, in order.
* ``call(fn, *args)``: a shared formula; a list argument is a tuple.
* ``lookup(table, *args)``: a function of :func:`tables`;
  ``attr(value, name)`` reads a field of its result.
* ``template(key, params, guard=None)``: a template's five predicted
  values (``models.prim_key`` names a primitive's), or ``None`` where
  ``guard`` is zero.
* ``branch(cond, if_true, if_false)``: the value (or list of values) of
  the callable ``if_true()`` where ``cond`` holds, else of
  ``if_false()``.
* ``term(values, *scales)``: add values times scales to the raw counts,
  which ``raw()`` returns.
* IR reads: ``par``, ``iterations``, ``width``, ``banks``, ``sizes`` (a
  transfer's tile, a BRAM's dims), ``num_commands``, ``replication``,
  ``metapipe`` (whether a controller is a MetaPipe: the walk never
  tests a loop's class itself), ``double_buffered`` (a memory's flag,
  which follows the MetaPipes), and the transfer streams ``weighted``
  and ``overlap`` (:func:`~repro.ir.graph.weighted_transfers`,
  :func:`~repro.ir.graph.overlap_streams`).
"""

from __future__ import annotations

import math
import operator
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe
from ..ir.graph import (
    Design, delay_slacks, max_depth, overlap_streams, pipe_latency,
    replication, weighted_transfers,
)
from ..ir.memories import BRAM, OnChipMemory, PriorityQueue, Reg
from ..ir.memops import TileTransfer
from ..ir.node import Const, Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp
from .area import EST_FMA_DISCOUNT, EST_TREE_DISCOUNT, bram_blocks, delay_counts
from .counts import Counts
from .cycles import (
    drain_latency, metapipe_cycles, parallel_cycles, pipe_cycles,
    sequential_cycles, stream_cycles,
)
from .features import feature_vector


def tables(device, board=None) -> Dict[str, Callable]:
    """The pure functions ``lookup`` names, bound to a device and board."""
    return {
        "DELAY": delay_counts,
        "BRAM_BLOCKS": lambda *k: bram_blocks(*k, device),
        "STREAM": lambda *k: stream_cycles(*k[:4], board, k[4]),
    }


# -- cycles (Section IV-B1) ------------------------------------------------------


def cycles(b, design: Design, per_controller: Optional[dict] = None):
    """Total cycles; ``per_controller`` collects each controller's."""
    total = b.const(0.0)
    for top in design.top_controllers:
        total = b.add(total, _cycles(b, top, b.const(0), per_controller))
    return total


def _cycles(b, ctrl: Controller, contention, record):
    if isinstance(ctrl, TileTransfer):
        value = b.lookup(
            "STREAM", b.const(ctrl.offchip.tp.bits), b.sizes(ctrl)[-1],
            b.num_commands(ctrl), b.par(ctrl), b.add(contention, b.const(1)),
        )
    elif isinstance(ctrl, Pipe):
        value = b.call(
            pipe_cycles, b.const(pipe_latency(ctrl.body)), b.iterations(ctrl),
            b.par(ctrl), b.const(drain_latency(ctrl)),
        )
    elif isinstance(ctrl, Parallel):
        value = b.call(parallel_cycles, _overlapped(b, ctrl, contention, record))
    else:  # a loop: a MetaPipe or a Sequential, as the backend reads it
        value = b.branch(
            b.metapipe(ctrl),
            lambda: b.call(metapipe_cycles, b.iterations(ctrl),
                           _overlapped(b, ctrl, contention, record)),
            lambda: _sequential_cycles(b, ctrl, contention, record),
        )
    if record is not None:
        record[ctrl.key] = value
    return value


def _overlapped(b, ctrl: Controller, contention, record) -> list:
    # Parallel children, and MetaPipe stages in steady state, run at
    # once: their transfers compete for DRAM.
    return [
        _cycles(b, c, b.overlap(ctrl, c, contention), record)
        for c in ctrl.stages
    ]


def _sequential_cycles(b, ctrl: Controller, contention, record):
    # Stages run one at a time, but replicated loop bodies (par > 1)
    # execute concurrently and compete for DRAM.
    copies = b.add(b.par(ctrl), b.const(-1))
    return b.call(sequential_cycles, b.iterations(ctrl), [
        _cycles(b, c, b.add(contention, b.mul(copies, b.weighted(c))), record)
        for c in ctrl.stages
    ])


# -- raw area terms (Section IV-B2) ----------------------------------------------


def area_terms(b, design: Design) -> None:
    """Every template term, scaled by its scope's replication, in order."""
    for ctrl in design.controllers():
        _controller_terms(b, ctrl, b.replication(ctrl))
    for mem in design.onchip_mems():
        _memory_terms(b, mem, b.replication(mem))


def _prim(b, op: str, tp, width, guard=None):
    return b.template(
        b.models.prim_key(op, tp), {"bits": b.const(tp.bits), "width": width},
        guard,
    )


def _controller_terms(b, ctrl: Controller, factor) -> None:
    if ctrl.cchain is not None:
        b.term(b.template("counter", {
            "ndims": b.const(len(ctrl.cchain.dims)), "par": b.par(ctrl),
        }), factor)
    if isinstance(ctrl, Pipe):
        _pipe_terms(b, ctrl, factor)
    elif isinstance(ctrl, TileTransfer):
        b.term(b.template("tile_transfer", {
            "bits": b.const(ctrl.offchip.tp.bits),
            "par": b.par(ctrl),
            "num_commands": b.num_commands(ctrl),
        }), factor)
    elif isinstance(ctrl, Parallel):
        b.term(b.template("parallel", {"n": b.const(len(ctrl.stages))}),
               factor)
    else:  # a loop: a MetaPipe or a Sequential, as the backend reads it
        n = {"n": b.const(len(ctrl.stages))}
        b.term(b.branch(
            b.metapipe(ctrl),
            lambda: b.template("metapipe", n),
            lambda: b.template("sequential", n),
        ), factor)
        for node in ctrl.body_prims:
            if isinstance(node, Prim):
                b.term(_prim(b, node.op, node.tp, b.width(node)), factor)
        _accum_terms(b, ctrl, factor)


def _accum_terms(b, ctrl: Controller, factor) -> None:
    if ctrl.accum is None:
        return
    op, target = ctrl.accum
    tp = target.tp
    if isinstance(target, BRAM):
        banks = b.banks(target)
        b.term(_prim(b, op, tp, banks), factor)
        for kind in ("load", "store"):
            b.term(b.template(kind, {
                "bits": b.const(tp.bits), "width": banks, "banks": banks,
            }), factor)
    else:
        b.term(_prim(b, op, tp, b.const(1)), factor)


def _pipe_terms(b, pipe: Pipe, factor) -> None:
    body = pipe.body
    b.term(b.template("pipe", {"n": b.const(len(body))}), factor)
    fused = _fma_fusions(body)
    for node in body:
        if isinstance(node, Prim):
            values = _prim(b, node.op, node.tp, b.width(node))
            if node.nid in fused:
                b.term(values, b.const(EST_FMA_DISCOUNT), factor)
            else:
                b.term(values, factor)
        elif isinstance(node, (LoadOp, StoreOp)):
            load = isinstance(node, LoadOp)
            b.term(b.template("load" if load else "store", {
                "bits": b.const(node.tp.bits if load else node.mem.tp.bits),
                "width": b.width(node),
                "banks": b.banks(node.mem),
            }), factor)
    _reduce_tree_terms(b, pipe, factor)
    # Delay balancing from the ASAP schedule's slack: shift registers,
    # or a BRAM delay line past EST_DELAY_BRAM_THRESHOLD cycles.
    zero = b.const(0.0)
    for inp, slack in delay_slacks(body):
        bits = b.mul(b.const(inp.tp.bits), b.max(b.width(inp), b.const(1)))
        delay = b.lookup("DELAY", bits, b.const(slack))
        b.term(
            [zero, zero, b.attr(delay, "regs"), zero, b.attr(delay, "brams")],
            factor,
        )


def _reduce_tree_terms(b, pipe: Pipe, factor) -> None:
    if pipe.accum is None or not isinstance(pipe.result, Value):
        return
    op = pipe.accum[0]
    tp = pipe.result.tp
    tree_ops = b.max(b.add(b.par(pipe), b.const(-1)), b.const(0))
    values = _prim(b, op, tp, tree_ops, guard=tree_ops)
    if values is not None:
        if tp.is_float and op in ("add", "sub"):
            b.term(values, b.const(EST_TREE_DISCOUNT), factor)
        else:
            b.term(values, factor)
    b.term(_prim(b, op, tp, b.const(1)), factor)


def _fma_fusions(body: List[Node]) -> set:
    """Float adds the toolchain is guessed to fuse with their one
    multiplier (the estimator's fixed heuristic, not synthesis's rule)."""
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


def _memory_terms(b, mem: OnChipMemory, factor) -> None:
    bits = b.const(mem.tp.bits)
    double = b.double_buffered(mem)
    if isinstance(mem, BRAM):
        banks = b.banks(mem)
        values = b.template(
            "bram", {"banks": banks, "bits": bits, "double": double}
        )
        # Block RAMs come from the banked geometry, not from the fit.
        values[4] = b.lookup(
            "BRAM_BLOCKS", b.mul(*b.sizes(mem)), banks, bits, double
        )
        b.term(values, factor)
    elif isinstance(mem, PriorityQueue):
        b.term(b.template(
            "pqueue", {"depth": b.const(mem.depth), "bits": bits}
        ), factor)
    elif isinstance(mem, Reg):
        b.term(b.template("reg", {"bits": bits, "double": double}), factor)


# -- wires and features -------------------------------------------------------------


def wire_bits(b, design: Design):
    """Bits x lanes x replication, summed over the non-constant values.

    Values of one (width, replication) are grouped; every partial sum is
    an integer well below 2**53, so any grouping gives the same float.
    """
    groups: Dict[tuple, int] = {}
    for node in design.nodes:
        if isinstance(node, Value) and not isinstance(node, Const):
            key = (b.width(node), b.replication(node))
            groups[key] = groups.get(key, 0) + node.tp.bits
    total = b.add(*[
        b.mul(b.const(bits), b.max(width, b.const(1)), rep)
        for (width, rep), bits in groups.items()
    ])
    return b.add(b.const(0.0), total)


def features(b, design: Design, raw, wires):
    """The 11 inputs of the correction networks (:func:`feature_vector`)."""
    controllers = list(design.controllers())
    mems = list(design.onchip_mems())
    return b.call(
        feature_vector, raw, wires,
        b.const(len(controllers)),
        b.add(*[b.metapipe(c) for c in controllers]),
        b.const(sum(isinstance(c, TileTransfer) for c in controllers)),
        b.const(max_depth(design)),
        # A design without on-chip memories counts as one bank.
        b.add(*[b.banks(m) for m in mems]) if mems else b.const(1),
    )


# -- the number backend ------------------------------------------------------------


class Numbers:
    """The walk on Python numbers, read off a finalized design.

    ``models`` (template predictions) is needed for :func:`area_terms`
    and ``board`` (DRAM streams) for :func:`cycles`.
    """

    def __init__(self, models=None, board=None) -> None:
        self.models = models
        device = board.device if board is not None else getattr(
            models, "device", None)
        self.tables = tables(device, board)
        self.sums = [0.0] * 5

    # Python's own arithmetic. Builtins and attrgetters do not bind to
    # the instance, so only the lambdas need ``staticmethod``.
    const = staticmethod(lambda value: value)
    add = staticmethod(lambda *xs: sum(xs))
    mul = staticmethod(lambda *xs: math.prod(xs))
    max = max
    call = staticmethod(lambda fn, *args: fn(*args))
    attr = getattr
    branch = staticmethod(lambda cond, if_true, if_false: (
        if_true() if cond else if_false()))

    def lookup(self, table: str, *args):
        """``table``'s function of ``args`` (:func:`tables`)."""
        return self.tables[table](*args)

    def template(self, key: str, params: dict, guard=None):
        """The five predicted values, or None if ``guard`` is zero."""
        if guard is not None and not guard:
            return None
        c = self.models.predict(key, params)
        return [c.luts_packable, c.luts_unpackable, c.regs, c.dsps, c.brams]

    def term(self, values, *scales) -> None:
        """Add ``values`` times each scale to the running sums, in order."""
        for scale in scales:
            if scale != 1:  # most scopes are not replicated
                values = [value * scale for value in values]
        self.sums = list(map(operator.add, self.sums, values))

    def raw(self) -> Counts:
        """The raw counts of every term so far."""
        return Counts(*self.sums)

    # IR reads: what the builder and Design.finalize set on the nodes.
    par = attrgetter("par")
    iterations = attrgetter("iterations")
    width = attrgetter("width")
    banks = attrgetter("banks")
    num_commands = attrgetter("num_commands")
    double_buffered = attrgetter("double_buffered")
    metapipe = staticmethod(lambda ctrl: isinstance(ctrl, MetaPipe))
    sizes = staticmethod(  # a transfer's tile sizes, a BRAM's dims
        lambda node: node.sizes if isinstance(node, TileTransfer) else node.dims
    )
    replication = staticmethod(replication)
    weighted = staticmethod(weighted_transfers)
    overlap = staticmethod(overlap_streams)
