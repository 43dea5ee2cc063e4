"""Primitive DHDL nodes: arithmetic, logic, muxes, and on-chip loads/stores.

Each primitive carries an operation name from :data:`OP_INFO`, which records
the template-independent metadata the rest of the system needs: arity and
pipeline latency in fabric-clock cycles (at the paper's 150 MHz target).

Area knowledge deliberately does *not* live here, not even which ops map
to DSP blocks: the synthesis substrate (:mod:`repro.synth`) holds the
ground-truth costs and the estimator (:mod:`repro.estimation`) holds
models *fitted* from characterization runs, mirroring the paper's
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from .node import IRError, Node, Value, result_type
from .types import Bool, HWType

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Design
    from .memories import OnChipMemory


@dataclass(frozen=True)
class OpInfo:
    """Metadata for one primitive operation."""

    name: str
    arity: int
    latency_fix: int  # pipeline latency for fixed-point operands
    latency_flt: int  # pipeline latency for floating-point operands


OP_INFO = {
    info.name: info
    for info in [
        OpInfo("add", 2, 1, 7),
        OpInfo("sub", 2, 1, 7),
        OpInfo("mul", 2, 2, 6),
        OpInfo("div", 2, 16, 28),
        OpInfo("lt", 2, 1, 2),
        OpInfo("gt", 2, 1, 2),
        OpInfo("le", 2, 1, 2),
        OpInfo("ge", 2, 1, 2),
        OpInfo("eq", 2, 1, 2),
        OpInfo("ne", 2, 1, 2),
        OpInfo("and", 2, 1, 1),
        OpInfo("or", 2, 1, 1),
        OpInfo("not", 1, 1, 1),
        OpInfo("neg", 1, 1, 1),
        OpInfo("abs", 1, 1, 1),
        OpInfo("mux", 3, 1, 1),
        OpInfo("sqrt", 1, 16, 28),
        OpInfo("log", 1, 16, 26),
        OpInfo("exp", 1, 16, 24),
        OpInfo("floor", 1, 1, 2),
        OpInfo("min", 2, 1, 3),
        OpInfo("max", 2, 1, 3),
    ]
}


def op_latency(op: str, tp: HWType) -> int:
    """Pipeline latency of ``op`` on operands of type ``tp``."""
    info = OP_INFO[op]
    return info.latency_flt if tp.is_float else info.latency_fix


class Prim(Value):
    """A primitive compute node (``+``, ``*``, ``mux``, ``sqrt``, ...)."""

    def __init__(
        self,
        design: "Design",
        op: str,
        inputs: Sequence[Value],
        tp: HWType,
    ) -> None:
        if op not in OP_INFO:
            raise IRError(f"unknown primitive operation {op!r}")
        info = OP_INFO[op]
        if len(inputs) != info.arity:
            raise IRError(
                f"{op} expects {info.arity} inputs, got {len(inputs)}"
            )
        super().__init__(design, op, tp)
        self.op = op
        self.inputs = list(inputs)

    @property
    def latency(self) -> int:
        return op_latency(self.op, self.tp)


class LoadOp(Value):
    """Load from an on-chip memory (BRAM / Reg / PriorityQueue).

    ``indices`` are address expressions (Values over counter iterators and
    constants); registers take no indices. The load's vector width is
    inherited from the enclosing Pipe's parallelization factor, and together
    with the access pattern determines the memory's banking (Section III-B).
    """

    LATENCY = 1

    def __init__(
        self,
        design: "Design",
        mem: "OnChipMemory",
        indices: Sequence[Value],
    ) -> None:
        super().__init__(design, f"ld_{mem.name}", mem.tp)
        self.mem = mem
        self.indices = list(indices)
        self.inputs = list(indices)
        mem.readers.append(self)

    @property
    def latency(self) -> int:
        return self.LATENCY


class StoreOp(Node):
    """Store to an on-chip memory. Produces no value."""

    LATENCY = 1

    def __init__(
        self,
        design: "Design",
        mem: "OnChipMemory",
        indices: Sequence[Value],
        value: Value,
    ) -> None:
        super().__init__(design, f"st_{mem.name}")
        self.mem = mem
        self.indices = list(indices)
        self.value = value
        self.inputs: List[Value] = list(indices) + [value]
        self.width = 1
        mem.writers.append(self)

    @property
    def latency(self) -> int:
        return self.LATENCY


def make_mux(design: "Design", cond: Value, if_true: Value, if_false: Value) -> Prim:
    """Create a 2:1 multiplexer node (data-dependent select, paper Fig. 4 l.30)."""
    if cond.tp != Bool:
        raise IRError("mux condition must be a single bit")
    tp = result_type("add", if_true.tp, if_false.tp)
    return design.add_prim("mux", [cond, if_true, if_false], tp)
