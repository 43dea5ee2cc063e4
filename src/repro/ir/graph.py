"""The DHDL design container: graph construction, finalization, validation.

A :class:`Design` owns every node of one DHDL program instance. Designs are
built with concrete parameter values (metaprogramming, paper Section III):
the same builder function called with different tile sizes, parallelization
factors, and MetaPipe toggles yields different design instances.

Finalization derives the properties the paper's tools infer automatically:

* vector widths of primitive nodes from enclosing Pipe parallelization;
* banking factors of on-chip memories from accessor vector widths;
* double-buffering of communication buffers between MetaPipe stages.

The module also holds the structure computations that the estimator, the
cycle simulator and the synthesis substrate share, so that each reads the
design the same way: loop replication and execution counts, transfer
streams, nesting depth, DRAM traffic, and the ASAP schedule of a Pipe
body with its critical-path latency and per-edge delay slack (paper
Section IV-B). :func:`same_shape` compares two builds of one builder up
to the fields their parameters bind, for the estimator's plans.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .controllers import (
    Controller,
    CounterChain,
    CounterIter,
    MetaPipe,
    Parallel,
    Pipe,
    Sequential,
)
from .memops import TileTransfer
from .memories import BRAM, OffChipMem, OnChipMemory, Reg
from .node import Const, IRError, Node, Value, result_type
from .primitives import LoadOp, Prim, StoreOp
from .types import Bool, FltPt, HWType, Index

_ACTIVE_DESIGNS: List["Design"] = []


def current_design() -> "Design":
    """The design currently open via ``with design:`` (builder API)."""
    if not _ACTIVE_DESIGNS:
        raise IRError("no active design; wrap construction in 'with Design(...):'")
    return _ACTIVE_DESIGNS[-1]


class Design:
    """A complete DHDL program: a parameterized hierarchical dataflow graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.offchip_mems: List[OffChipMem] = []
        self.top_mems: List[OnChipMemory] = []
        self.arg_outs: List[Reg] = []
        self.top_controllers: List[Controller] = []
        self._scope_stack: List[Controller] = []
        self.finalized = False
        # (node id, field path) -> parameter name, for fields the builder
        # API received as a ``builder.Param`` (see repro.ir.builder).
        self.bindings: Dict[Tuple[int, Tuple], str] = {}

    # -- construction protocol --------------------------------------------------
    def __enter__(self) -> "Design":
        _ACTIVE_DESIGNS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE_DESIGNS.pop()
        assert popped is self
        if exc_type is None:
            self.finalize()

    def _register(self, node: Node) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        scope = self._current_scope()
        if scope is not None and _belongs_in_children(node):
            scope.children.append(node)
        elif scope is None and isinstance(node, Controller):
            self.top_controllers.append(node)
        return nid

    def _current_scope(self) -> Optional[Controller]:
        return self._scope_stack[-1] if self._scope_stack else None

    def _push_scope(self, ctrl: Controller) -> None:
        self._scope_stack.append(ctrl)

    def _pop_scope(self, ctrl: Controller) -> None:
        if not self._scope_stack or self._scope_stack[-1] is not ctrl:
            raise IRError(f"scope mismatch popping {ctrl.name!r}")
        self._scope_stack.pop()

    # -- node factories -----------------------------------------------------------
    def as_value(self, x: object, like: Optional[HWType] = None) -> Value:
        """Coerce a Python constant to a :class:`Const` node (or pass through)."""
        if isinstance(x, Value):
            return x
        if isinstance(x, bool):
            return Const(self, x, Bool)
        if isinstance(x, int):
            tp = like if like is not None and not like.is_bit else Index
            return Const(self, x, tp)
        if isinstance(x, float):
            # A literal in a fixed-point context becomes a fixed-point
            # constant of the same format (DHDL requires explicit
            # conversions only between *computed* values).
            if like is not None and not like.is_bit:
                tp = like
            else:
                tp = FltPt(24, 8)
            return Const(self, x, tp)
        raise IRError(f"cannot convert {x!r} to a DHDL value")

    def add_prim(self, op: str, inputs: Sequence[Value], tp: HWType) -> Prim:
        """Create a primitive node in the current scope."""
        for v in inputs:
            if v.design is not self:
                raise IRError(f"input {v!r} belongs to a different design")
        return Prim(self, op, inputs, tp)

    def add_binop(self, op: str, a: Value, b: Value) -> Prim:
        """Create a binary primitive, deriving its result type."""
        tp = result_type(op, a.tp, b.tp)
        return self.add_prim(op, [a, b], tp)

    def add_unop(self, op: str, a: Value) -> Prim:
        """Create a unary primitive, deriving its result type."""
        tp = Bool if op == "not" else a.tp
        return self.add_prim(op, [a], tp)

    def add_load(self, mem: OnChipMemory, indices: Sequence[object]) -> LoadOp:
        """Create an on-chip load with coerced index expressions."""
        idx = [self.as_value(i, like=Index) for i in indices]
        _check_index_count(mem, idx)
        return LoadOp(self, mem, idx)

    def add_store(
        self, mem: OnChipMemory, indices: Sequence[object], value: object
    ) -> StoreOp:
        """Create an on-chip store with type checking against the memory."""
        idx = [self.as_value(i, like=Index) for i in indices]
        _check_index_count(mem, idx)
        val = self.as_value(value, like=mem.tp)
        result_type("add", val.tp, mem.tp)  # raises on family mismatch
        return StoreOp(self, mem, idx, val)

    # -- finalization ---------------------------------------------------------------
    @property
    def root(self) -> Controller:
        if len(self.top_controllers) != 1:
            raise IRError(
                f"design {self.name!r} must have exactly one top-level "
                f"controller, found {len(self.top_controllers)}"
            )
        return self.top_controllers[0]

    def finalize(self) -> "Design":
        """Derive vector widths, banking, and double buffering; validate."""
        if self._scope_stack:
            raise IRError("finalize called with open controller scopes")
        transfers = bram_transfers(self)
        self._assign_widths()
        self._infer_banking(transfers)
        self._infer_double_buffering(transfers)
        self._validate()
        self.finalized = True
        return self

    def _assign_widths(self) -> None:
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe):
                width = ctrl.par
                for node in ctrl.body_prims:
                    node.width = width
                if ctrl.cchain is not None:
                    for it in ctrl.cchain.iters:
                        it.width = width

    def _infer_banking(self, transfers: Dict[int, List[TileTransfer]]) -> None:
        for mem in self.onchip_mems():
            widths = [a.width for a in mem.readers + mem.writers]
            widths += [t.par for t in transfers.get(mem.nid, ())]
            mem.banks = max(widths, default=1)

    def _infer_double_buffering(
        self, transfers: Dict[int, List[TileTransfer]]
    ) -> None:
        for ctrl in self.controllers():
            if isinstance(ctrl, MetaPipe):
                for mem in double_buffers(ctrl, transfers):
                    mem.double_buffered = True

    def _validate(self) -> None:
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe):
                for child in ctrl.children:
                    if isinstance(child, Controller):
                        raise IRError(
                            f"Pipe {ctrl.name!r} may contain only primitive "
                            f"nodes, found {child.kind} {child.name!r}"
                        )
            if isinstance(ctrl, Parallel) and not ctrl.stages:
                raise IRError(f"Parallel {ctrl.name!r} has no children")
            if isinstance(ctrl, (MetaPipe, Sequential)) and not ctrl.children:
                raise IRError(f"{ctrl.kind} {ctrl.name!r} is empty")
            if ctrl.accum is not None:
                op, target = ctrl.accum
                if ctrl.result is None:
                    raise IRError(
                        f"{ctrl.name!r} accumulates into {target.name!r} but "
                        "declares no result"
                    )
        for node in self.nodes:
            if isinstance(node, (LoadOp, StoreOp)):
                self._check_mem_scope(node)

    def _check_mem_scope(self, access: Union[LoadOp, StoreOp]) -> None:
        mem = access.mem
        if mem in self.top_mems:
            return
        enclosing = access.ancestors()
        owner = mem.parent
        if owner is None or owner in enclosing:
            return
        raise IRError(
            f"{access.kind} {access.name!r} accesses memory {mem.name!r} "
            "declared outside its enclosing scopes"
        )

    # -- traversal -------------------------------------------------------------------
    def controllers(self) -> Iterator[Controller]:
        """All controllers, pre-order from the top."""
        def walk(ctrl: Controller) -> Iterator[Controller]:
            yield ctrl
            for child in ctrl.stages:
                yield from walk(child)

        for top in self.top_controllers:
            yield from walk(top)

    def pipes(self) -> Iterator[Pipe]:
        """All Pipe controllers, pre-order."""
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe):
                yield ctrl

    def tile_transfers(self) -> Iterator[TileTransfer]:
        """All TileLd/TileSt command generators, pre-order."""
        for ctrl in self.controllers():
            if isinstance(ctrl, TileTransfer):
                yield ctrl

    def onchip_mems(self) -> Iterator[OnChipMemory]:
        """Every on-chip buffer: top-level first, then per controller scope."""
        seen = set()
        for mem in self.top_mems:
            seen.add(id(mem))
            yield mem
        for ctrl in self.controllers():
            for mem in ctrl.local_mems:
                if id(mem) not in seen:
                    seen.add(id(mem))
                    yield mem

    # -- summary metrics ----------------------------------------------------------------
    def total_bram_words(self) -> int:
        """Total on-chip buffer capacity in words (double buffers count twice)."""
        return sum(
            mem.size * (2 if mem.double_buffered else 1)
            for mem in self.onchip_mems()
        )

    def count_nodes(self, kind: type) -> int:
        """Number of nodes of one class in the design."""
        return sum(1 for n in self.nodes if isinstance(n, kind))

    def stats(self) -> Dict[str, int]:
        """Summary node/controller/memory counts."""
        return {
            "nodes": len(self.nodes),
            "prims": self.count_nodes(Prim),
            "loads": self.count_nodes(LoadOp),
            "stores": self.count_nodes(StoreOp),
            "controllers": sum(1 for _ in self.controllers()),
            "pipes": sum(1 for _ in self.pipes()),
            "metapipes": sum(
                1 for c in self.controllers() if isinstance(c, MetaPipe)
            ),
            "onchip_mems": sum(1 for _ in self.onchip_mems()),
            "offchip_mems": len(self.offchip_mems),
            "tile_transfers": sum(1 for _ in self.tile_transfers()),
        }


def bram_transfers(design: Design) -> Dict[int, List[TileTransfer]]:
    """Each BRAM's tile transfers, in build order, keyed by its node id."""
    out: Dict[int, List[TileTransfer]] = {}
    for node in design.nodes:
        if isinstance(node, TileTransfer):
            out.setdefault(node.bram.nid, []).append(node)
    return out


def double_buffers(
    ctrl: Controller, transfers: Dict[int, List[TileTransfer]]
) -> List[OnChipMemory]:
    """The buffers ``ctrl`` double-buffers as a MetaPipe: a local memory
    written in an earlier stage than one that reads it, the accumulator
    and the result memory. ``transfers`` is :func:`bram_transfers`."""
    stage_index = {id(s): i for i, s in enumerate(ctrl.stages)}
    out = []
    for mem in ctrl.local_mems:
        writes = _accessor_stages(mem, stage_index, transfers, writers=True)
        reads = _accessor_stages(mem, stage_index, transfers, writers=False)
        if writes and reads and min(writes) < max(reads):
            out.append(mem)
    if ctrl.accum is not None:
        out.append(ctrl.accum[1])
    if isinstance(ctrl.result, OnChipMemory):
        out.append(ctrl.result)
    return out


#: Node fields never compared by :func:`same_shape`: the owning design and
#: what finalize derives.
_DERIVED = frozenset(("design", "width", "banks", "double_buffered"))


def same_shape(a: Design, b: Design) -> bool:
    """Whether two builds of one builder have one structure: every node
    field matches except those bound to a parameter (``bindings``) and
    those finalize derives, and every node's class except a toggled
    loop's (bound at ``("metapipe",)``)."""
    if a.name != b.name or a.bindings != b.bindings:
        return False
    if len(a.nodes) != len(b.nodes):
        return False
    bound = a.bindings
    bound_fields = {(nid, path[0]) for nid, path in bound}
    for x, y in zip(a.nodes, b.nodes):
        if type(x) is not type(y) and (x.nid, "metapipe") not in bound_fields:
            return False
        fx, fy = vars(x), vars(y)
        if fx.keys() != fy.keys():
            return False
        for name, value in fx.items():
            other = fy[name]
            if value is other or name in _DERIVED or name[0] == "_":
                continue
            if (x.nid, name) in bound_fields:
                value = _masked(value, x.nid, (name,), bound)
                other = _masked(other, x.nid, (name,), bound)
            if not _same(value, other):
                return False
    return True


def _same(x, y) -> bool:
    if x is y:
        return True
    if isinstance(x, Node):
        return isinstance(y, Node) and x.nid == y.nid
    if isinstance(x, (list, tuple)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(map(_same, x, y)))
    return type(x) is type(y) and x == y


def _masked(value, nid: int, path: tuple, bound) -> object:
    """``value`` with every parameter-bound entry replaced by its name."""
    name = bound.get((nid, path))
    if name is not None:
        return ("param", name)
    if isinstance(value, (list, tuple)):
        return tuple(
            _masked(v, nid, path + (i,), bound) for i, v in enumerate(value)
        )
    return value


def replication(node: Node) -> int:
    """How many hardware copies of ``node`` exist due to outer-loop
    parallelization.

    A parallelized MetaPipe/Sequential replicates its entire body (paper
    Figure 3: ``M1Par``, ``M2Par``); Pipe parallelization is instead
    expressed as vector width on the body's primitive nodes, so Pipe
    factors are excluded here.
    """
    factor = 1
    for ctrl in node.ancestors():
        if not isinstance(ctrl, Pipe) and ctrl.par > 1:
            factor *= ctrl.par
    return factor


def executions(ctrl: Node) -> int:
    """How many times this controller runs, given enclosing loop trip counts."""
    total = 1
    cur = ctrl.parent
    while cur is not None:
        total *= max(cur.iterations, 1)
        cur = cur.parent
    return total


def weighted_transfers(ctrl: Controller) -> int:
    """Concurrent transfer streams under ``ctrl``, counting replication.

    A transfer inside a parallelized outer loop is instantiated once per
    replica, so it contributes its enclosing loops' parallelization product.
    """
    if isinstance(ctrl, TileTransfer):
        return 1
    total = sum(weighted_transfers(c) for c in ctrl.stages)
    if not isinstance(ctrl, Pipe) and ctrl.par > 1:
        total *= ctrl.par
    return total


def overlap_streams(parent: Controller, child: Controller, streams: int) -> int:
    """Streams competing with ``child`` when ``parent``'s stages overlap.

    All of ``parent``'s transfer instances (across stages and replicas) are
    active concurrently; the child's own single instance is excluded — the
    leaf adds itself back.
    """
    all_instances = parent.par * sum(
        weighted_transfers(c) for c in parent.stages
    )
    return streams + all_instances - weighted_transfers(child)


def max_depth(design: Design) -> int:
    """Deepest controller nesting level (a lone top controller is 1)."""

    def depth(ctrl: Controller) -> int:
        return 1 + max((depth(c) for c in ctrl.stages), default=0)

    return max((depth(top) for top in design.top_controllers), default=1)


def total_dram_bytes(design: Design) -> float:
    """Bytes moved over DRAM by one run (all transfers, all trips)."""
    bits = sum(
        t.words * t.offchip.tp.bits * executions(t)
        for t in design.tile_transfers()
    )
    return bits / 8.0


def asap_schedule(body: Sequence[Node]) -> Dict[int, Tuple[int, int]]:
    """ASAP ``(start, end)`` cycle of each Pipe body node, keyed by node
    id (paper Section IV-B2). Body order is creation order, which is
    topological; inputs from outside the body are ready at cycle 0."""
    times: Dict[int, Tuple[int, int]] = {}
    for node in body:
        start = 0
        for inp in getattr(node, "inputs", []):
            if inp.nid in times:
                start = max(start, times[inp.nid][1])
        if isinstance(node, Prim):
            latency = node.latency
        elif isinstance(node, (LoadOp, StoreOp)):
            latency = node.LATENCY
        else:
            latency = 0
        times[node.nid] = (start, start + latency)
    return times


def pipe_latency(body: Sequence[Node]) -> int:
    """Critical-path latency of a Pipe body (1 for an empty body)."""
    times = asap_schedule(body)
    return max((end for _, end in times.values()), default=1)


def delay_slacks(body: Sequence[Node]) -> Iterator[Tuple[Value, int]]:
    """``(input, slack)`` of each body edge the ASAP schedule leaves slack
    on, in body order (paper Section IV-B2); constants need no balancing."""
    times = asap_schedule(body)
    for node in body:
        start = times[node.nid][0]
        for inp in getattr(node, "inputs", []):
            if inp.nid not in times or isinstance(inp, Const):
                continue
            slack = start - times[inp.nid][1]
            if slack > 0:
                yield inp, slack


def _belongs_in_children(node: Node) -> bool:
    """Nodes appended to their scope's ``children`` list."""
    if isinstance(node, (OnChipMemory, OffChipMem, CounterChain, CounterIter)):
        return False
    return isinstance(node, (Controller, Value, StoreOp))


def _check_index_count(mem: OnChipMemory, indices: Sequence[Value]) -> None:
    expected = len(getattr(mem, "dims", ())) if isinstance(mem, BRAM) else 0
    if isinstance(mem, BRAM) and len(indices) != expected:
        raise IRError(
            f"memory {mem.name!r} is {expected}-dimensional but was accessed "
            f"with {len(indices)} indices"
        )


def _accessor_stages(
    mem: OnChipMemory,
    stage_index: Dict[int, int],
    transfers: Dict[int, List[TileTransfer]],
    writers: bool,
) -> List[int]:
    """MetaPipe stage indices at which ``mem`` is written (or read).

    TileLd counts as a writer of its BRAM; TileSt as a reader.
    """
    stages: List[int] = []
    accessors: List[Node] = list(mem.writers if writers else mem.readers)
    accessors += [t for t in transfers.get(mem.nid, ()) if t.is_load == writers]
    for acc in accessors:
        chain: List[Node] = [acc] + list(acc.ancestors())
        for anc in chain:
            if id(anc) in stage_index:
                stages.append(stage_index[id(anc)])
                break
    return stages
