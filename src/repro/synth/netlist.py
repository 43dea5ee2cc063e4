"""Netlist expansion: DHDL design instance -> primitive resource atoms.

This is the substrate's "logic synthesis" front half: each template
instance is expanded into its ground-truth resource requirements
(:mod:`repro.synth.atoms`), including the low-level optimizations real
toolchains apply that the paper calls out as sources of estimation error
(Section V-B):

* floating-point multiply-add fusion,
* fusion of floating-point reduction trees,
* BRAM coalescing of small adjacent buffers,
* delay-balancing registers / BRAM delay lines for pipeline slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.controllers import (
    Controller,
    MetaPipe,
    Parallel,
    Pipe,
    Sequential,
)
from ..ir.graph import Design, delay_slacks, max_depth, replication
from ..ir.memories import BRAM, PriorityQueue, Reg
from ..ir.memops import TileTransfer
from ..ir.node import Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp
from ..target.device import Device
from . import atoms as at

# Delay (in cycles) above which slack is absorbed by a BRAM delay line
# rather than shift registers.
DELAY_BRAM_THRESHOLD = 16

# Ground-truth fusion discounts (hidden from the estimator).
FMA_FUSION_DISCOUNT = 0.65  # fused fadd costs 65% of a standalone one
TREE_FUSION_DISCOUNT = 0.78  # fused reduction-tree adders
BRAM_COALESCE_WORDS = 128  # buffers at most this deep may be coalesced


@dataclass
class TaggedAtom:
    """A resource atom labeled with its originating template."""

    tag: str
    atom: at.Atom


@dataclass
class Netlist:
    """Expanded design: atoms plus structural statistics."""

    design_name: str
    atoms: List[TaggedAtom] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    def add(self, tag: str, atom: at.Atom) -> None:
        """Append one template's atom under a category tag."""
        self.atoms.append(TaggedAtom(tag, atom))

    def totals(self) -> at.Atom:
        """Sum of all atoms in the netlist."""
        total = at.Atom()
        for tagged in self.atoms:
            total.add(tagged.atom)
        return total

    def totals_by_tag(self) -> Dict[str, at.Atom]:
        """Per-category resource totals."""
        out: Dict[str, at.Atom] = {}
        for tagged in self.atoms:
            out.setdefault(tagged.tag, at.Atom()).add(tagged.atom)
        return out


def expand(design: Design, device: Device) -> Netlist:
    """Expand ``design`` into a netlist of ground-truth resource atoms.

    Outer-loop parallelization replicates hardware: every atom is scaled by
    the replication factor of its controller scope (paper Figure 3).
    """
    netlist = Netlist(design.name)
    for ctrl in design.controllers():
        scoped = _ScopedNetlist(netlist, replication(ctrl))
        _expand_controller(ctrl, scoped, device)
    _expand_memories(design, netlist, device)
    _collect_stats(design, netlist)
    return netlist


class _ScopedNetlist:
    """Netlist view that scales every added atom by a replication factor."""

    def __init__(self, netlist: Netlist, factor: int) -> None:
        self._netlist = netlist
        self._factor = factor

    def add(self, tag: str, atom: at.Atom) -> None:
        if self._factor != 1:
            atom = atom.scaled(self._factor)
        self._netlist.add(tag, atom)


# -- controllers -------------------------------------------------------------------


def _expand_controller(ctrl: Controller, netlist: Netlist, device: Device) -> None:
    if ctrl.cchain is not None:
        netlist.add("counter", at.counter_cost(len(ctrl.cchain.dims), ctrl.par))
    if isinstance(ctrl, Pipe):
        _expand_pipe(ctrl, netlist, device)
    elif isinstance(ctrl, TileTransfer):
        netlist.add(
            "tile_transfer",
            at.tile_transfer_cost(
                ctrl.offchip.tp.bits, ctrl.par, ctrl.num_commands, ctrl.is_load
            ),
        )
    elif isinstance(ctrl, MetaPipe):
        netlist.add("metapipe", at.metapipe_control_cost(len(ctrl.stages)))
        _expand_outer_prims(ctrl, netlist)
        _expand_accum(ctrl, netlist, device)
    elif isinstance(ctrl, Parallel):
        netlist.add("parallel", at.parallel_control_cost(len(ctrl.stages)))
    elif isinstance(ctrl, Sequential):
        netlist.add("sequential", at.sequential_control_cost(len(ctrl.stages)))
        _expand_outer_prims(ctrl, netlist)
        _expand_accum(ctrl, netlist, device)


def _expand_outer_prims(ctrl: Controller, netlist: Netlist) -> None:
    """Address-calculation primitives living directly in outer controllers."""
    for node in ctrl.body_prims:
        if isinstance(node, Prim):
            netlist.add("prim", at.prim_cost(node.op, node.tp, node.width))


def _expand_accum(ctrl: Controller, netlist: Netlist, device: Device) -> None:
    """Cross-iteration accumulation hardware for reduce-pattern outer loops."""
    if ctrl.accum is None:
        return
    op, target = ctrl.accum
    tp = target.tp
    if isinstance(target, BRAM):
        # Elementwise accumulation pipeline: read + combine + write per bank.
        width = target.banks
        netlist.add("accum", at.prim_cost(op, tp, width))
        netlist.add("accum", at.load_cost(tp.bits, width, target.banks))
        netlist.add("accum", at.store_cost(tp.bits, width, target.banks))
    else:
        netlist.add("accum", at.prim_cost(op, tp, 1))


def _expand_pipe(pipe: Pipe, netlist: Netlist, device: Device) -> None:
    body = pipe.body
    netlist.add("pipe", at.pipe_control_cost(len(body)))

    consumers = _consumer_map(body)
    fused_adds = _find_fma_fusions(body, consumers)

    for node in body:
        if isinstance(node, Prim):
            atom = at.prim_cost(node.op, node.tp, node.width)
            if node.nid in fused_adds:
                atom = atom.scaled(FMA_FUSION_DISCOUNT)
            netlist.add("prim", atom)
        elif isinstance(node, LoadOp):
            netlist.add(
                "load",
                at.load_cost(node.tp.bits, node.width, node.mem.banks),
            )
        elif isinstance(node, StoreOp):
            netlist.add(
                "store",
                at.store_cost(node.mem.tp.bits, node.width, node.mem.banks),
            )

    _expand_reduce_tree(pipe, netlist)
    _expand_delays(body, netlist, device)


def _expand_reduce_tree(pipe: Pipe, netlist: Netlist) -> None:
    """Balanced combine tree for parallelized reduce-pattern pipes."""
    if pipe.accum is None or not isinstance(pipe.result, Value):
        return
    op, target = pipe.accum
    tp = pipe.result.tp
    tree_ops = max(pipe.par - 1, 0)
    if tree_ops:
        atom = at.prim_cost(op, tp, tree_ops)
        if tp.is_float and op in ("add", "sub"):
            atom = atom.scaled(TREE_FUSION_DISCOUNT)
        netlist.add("reduce_tree", atom)
    # The feedback accumulator itself.
    netlist.add("reduce_tree", at.prim_cost(op, tp, 1))


def _consumer_map(body: List[Node]) -> Dict[int, List[Node]]:
    consumers: Dict[int, List[Node]] = {}
    for node in body:
        for inp in getattr(node, "inputs", []):
            consumers.setdefault(inp.nid, []).append(node)
    return consumers


def _find_fma_fusions(
    body: List[Node], consumers: Dict[int, List[Node]]
) -> set:
    """Float multiplies feeding exactly one float add fuse into the adder."""
    fused = set()
    for node in body:
        if not (isinstance(node, Prim) and node.op == "mul" and node.tp.is_float):
            continue
        outs = consumers.get(node.nid, [])
        if len(outs) == 1 and isinstance(outs[0], Prim):
            consumer = outs[0]
            if consumer.op in ("add", "sub") and consumer.tp.is_float:
                fused.add(consumer.nid)
    return fused


def _expand_delays(body: List[Node], netlist: Netlist, device: Device) -> None:
    """Delay-balancing resources for dataflow slack inside a Pipe body."""
    for inp, slack in delay_slacks(body):
        bits = inp.tp.bits * max(inp.width, 1)
        netlist.add("delay", at.delay_cost(
            bits * slack, slack > DELAY_BRAM_THRESHOLD, device.bram_blocks_for
        ))


# -- memories -----------------------------------------------------------------------


def _expand_memories(design: Design, netlist: Netlist, device: Device) -> None:
    small: Dict[Tuple[int, int], List[BRAM]] = {}
    for mem in design.onchip_mems():
        rep = replication(mem)
        if isinstance(mem, BRAM):
            if (
                mem.size <= BRAM_COALESCE_WORDS
                and mem.banks == 1
                and not mem.double_buffered
            ):
                key = (id(mem.parent), mem.tp.bits)
                small.setdefault(key, []).append(mem)
            else:
                netlist.add(
                    "bram",
                    at.bram_cost(
                        mem.size,
                        mem.tp.bits,
                        mem.banks,
                        mem.double_buffered,
                        device.bram_blocks_for,
                    ).scaled(rep),
                )
        elif isinstance(mem, PriorityQueue):
            netlist.add(
                "pqueue",
                at.pqueue_cost(
                    mem.depth, mem.tp.bits, mem.double_buffered
                ).scaled(rep),
            )
        elif isinstance(mem, Reg):
            netlist.add(
                "reg", at.reg_cost(mem.tp.bits, mem.double_buffered).scaled(rep)
            )
    _coalesce_small_brams(small, netlist, device)


def _coalesce_small_brams(
    groups: Dict[Tuple[int, int], List[BRAM]],
    netlist: Netlist,
    device: Device,
) -> None:
    """Small single-banked buffers in one scope share physical blocks."""
    for (_, bits), mems in groups.items():
        total_words = sum(m.size for m in mems)
        blocks = device.bram_blocks_for(total_words, bits)
        ctrl_luts = 12.0 * len(mems)
        netlist.add(
            "bram",
            at.Atom(ctrl_luts * 0.8, ctrl_luts * 0.2, 10.0 * len(mems), 0, blocks,
                    wires=bits * len(mems), fanout=2.0),
        )


# -- statistics ------------------------------------------------------------------------


def _collect_stats(design: Design, netlist: Netlist) -> None:
    total = netlist.totals()
    controllers = list(design.controllers())
    widths = [n.width for n in design.nodes if isinstance(n, Value)] or [1]
    banks = [m.banks for m in design.onchip_mems()] or [1]
    netlist.stats.update(
        {
            "num_atoms": float(len(netlist.atoms)),
            "num_controllers": float(len(controllers)),
            "num_metapipes": float(
                sum(1 for c in controllers if isinstance(c, MetaPipe))
            ),
            "num_tile_transfers": float(
                sum(1 for c in controllers if isinstance(c, TileTransfer))
            ),
            "max_depth": float(max_depth(design)),
            "avg_width": sum(widths) / len(widths),
            "total_banks": float(sum(banks)),
            "total_wires": total.wires,
            "raw_luts": total.luts,
            "raw_regs": total.regs,
            "raw_brams": total.brams,
            "raw_dsps": total.dsps,
        }
    )
