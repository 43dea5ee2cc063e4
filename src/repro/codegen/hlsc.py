"""HLS-C code generation — the paper's Figure 2 form.

Emits the imperative C-with-pragmas representation of a DHDL design, the
form the paper feeds to Vivado HLS for its Table IV comparison. The
generator demonstrates (in code) the expressiveness gap the paper argues:
DHDL's MetaPipe schedules have **no** HLS equivalent, so coarse-grained
pipelining degrades to a comment plus the restricted DATAFLOW directive,
and outer-loop parallelization degrades to an UNROLL factor on a loop the
HLS compiler must re-analyze.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design
from ..ir.memops import TileTransfer
from ..ir.memories import BRAM, OnChipMemory, PriorityQueue, Reg
from ..ir.node import Const, Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp

_OP_TO_C = {
    "add": "+", "sub": "-", "mul": "*", "div": "/",
    "lt": "<", "gt": ">", "le": "<=", "ge": ">=", "eq": "==", "ne": "!=",
    "and": "&&", "or": "||",
}
_FN_TO_C = {
    "sqrt": "sqrtf", "log": "logf", "exp": "expf", "abs": "fabsf",
    "floor": "floorf", "min": "fminf", "max": "fmaxf",
    "neg": "-", "not": "!",
}


def _c_type(tp) -> str:
    if tp.is_float:
        return "float" if tp.bits <= 32 else "double"
    if tp.is_bit:
        return "bool"
    if tp.frac_bits > 0:
        prefix = "ap_fixed" if tp.signed else "ap_ufixed"
        return f"{prefix}<{tp.bits}, {tp.int_bits}>"
    if tp.bits in (8, 16, 32, 64):
        return f"int{tp.bits}_t" if tp.signed else f"uint{tp.bits}_t"
    return f"ap_int<{tp.bits}>" if tp.signed else f"ap_uint<{tp.bits}>"


class HLSCGenerator:
    """Emit Figure 2-style HLS C for a DHDL design instance."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self._lines: List[str] = []
        self._indent = 1
        self._names: Dict[int, str] = {}
        self._loop_counter = 0

    def generate(self) -> str:
        """The full C translation unit for the design."""
        self._lines = ["#include <math.h>", "#include <stdint.h>", ""]
        args = ", ".join(
            f"{_c_type(m.tp)} {m.name}{''.join(f'[{d}]' for d in m.dims)}"
            for m in self.design.offchip_mems
        )
        outs = "".join(
            f", {_c_type(r.tp)} *{r.name}" for r in self.design.arg_outs
        )
        self._lines.append(f"void {self.design.name}({args}{outs}) {{")
        for mem in self.design.onchip_mems():
            self._emit_memory(mem)
        self._lines.append("")
        for top in self.design.top_controllers:
            self._emit_controller(top)
        self._lines.append("}")
        return "\n".join(self._lines)

    # -- helpers --------------------------------------------------------------------
    def _emit(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _name(self, node: Node) -> str:
        if node.nid not in self._names:
            self._names[node.nid] = f"{node.name.replace('.', '_')}_{node.nid}"
        return self._names[node.nid]

    def _emit_memory(self, mem: OnChipMemory) -> None:
        if isinstance(mem, BRAM):
            dims = "".join(f"[{d}]" for d in mem.dims)
            self._emit(f"{_c_type(mem.tp)} {self._name(mem)}{dims};")
            if mem.banks > 1:
                self._emit(
                    f"#pragma HLS ARRAY_PARTITION variable="
                    f"{self._name(mem)} cyclic factor={mem.banks} dim="
                    f"{len(mem.dims)}"
                )
        elif isinstance(mem, PriorityQueue):
            self._emit(
                f"{_c_type(mem.tp)} {self._name(mem)}[{mem.depth}]; "
                f"// sorting queue (no HLS equivalent; software model)"
            )
        elif isinstance(mem, Reg):
            self._emit(f"{_c_type(mem.tp)} {self._name(mem)} = 0;")

    def _emit_controller(self, ctrl: Controller) -> None:
        if isinstance(ctrl, TileTransfer):
            self._emit_transfer(ctrl)
            return
        if isinstance(ctrl, MetaPipe):
            # The expressiveness gap (paper Figures 2 vs 3): DATAFLOW is
            # the closest directive, but it cannot express arbitrarily
            # nested coarse-grained pipelines.
            self._emit(
                "// MetaPipe schedule: no HLS equivalent "
                "(DATAFLOW restrictions, see paper Sec. II)"
            )
        if isinstance(ctrl, Parallel):
            self._emit("// fork-join region (HLS: sequential functions)")
            for child in ctrl.stages:
                self._emit_controller(child)
            return
        if ctrl.cchain is not None:
            self._open_loops(ctrl)
            if isinstance(ctrl, Pipe):
                self._emit("#pragma HLS PIPELINE II=1")
            if ctrl.par > 1:
                self._emit(f"#pragma HLS UNROLL factor={ctrl.par}")
        if isinstance(ctrl, Pipe):
            self._emit_pipe_body(ctrl)
        else:
            for child in ctrl.stages:
                self._emit_controller(child)
        if ctrl.cchain is not None:
            self._close_loops(ctrl)
        if ctrl.accum is not None:
            op, target = ctrl.accum
            self._emit(
                f"// reduce({op}) into {self._name(target)} across iterations"
            )

    def _open_loops(self, ctrl: Controller) -> None:
        for dim, (extent, step) in enumerate(ctrl.cchain.dims):
            it = self._name(ctrl.cchain.iters[dim])
            self._loop_counter += 1
            self._emit(
                f"L{self._loop_counter}: for (int {it} = 0; {it} < {extent}; "
                f"{it} += {step}) {{"
            )
            self._indent += 1

    def _close_loops(self, ctrl: Controller) -> None:
        for _ in ctrl.cchain.dims:
            self._indent -= 1
            self._emit("}")

    def _emit_transfer(self, transfer: TileTransfer) -> None:
        sizes = " * ".join(str(s) for s in transfer.sizes)
        direction = "memcpy in" if transfer.is_load else "memcpy out"
        src, dst = (
            (transfer.offchip.name, self._name(transfer.bram))
            if transfer.is_load
            else (self._name(transfer.bram), transfer.offchip.name)
        )
        self._emit(
            f"// {direction}: {dst} <- {src} ({sizes} words, "
            f"{transfer.num_commands} bursts)"
        )
        self._emit(
            f"memcpy({dst}, /* &{src}[...] */ 0, ({sizes}) * sizeof(float));"
        )

    def _emit_pipe_body(self, pipe: Pipe) -> None:
        for node in pipe.body:
            if isinstance(node, Prim):
                self._emit(
                    f"{_c_type(node.tp)} {self._name(node)} = "
                    f"{self._expr(node)};"
                )
            elif isinstance(node, LoadOp):
                idx = "".join(
                    f"[{self._ref(i)}]" for i in node.indices
                ) or "[0]"
                target = self._name(node.mem)
                if isinstance(node.mem, Reg):
                    self._emit(
                        f"{_c_type(node.tp)} {self._name(node)} = {target};"
                    )
                else:
                    self._emit(
                        f"{_c_type(node.tp)} {self._name(node)} = "
                        f"{target}{idx};"
                    )
            elif isinstance(node, StoreOp):
                idx = "".join(f"[{self._ref(i)}]" for i in node.indices)
                target = self._name(node.mem)
                if isinstance(node.mem, Reg):
                    self._emit(f"{target} = {self._ref(node.value)};")
                else:
                    self._emit(f"{target}{idx} = {self._ref(node.value)};")
        if pipe.accum is not None and isinstance(pipe.result, Value):
            op, target = pipe.accum
            sym = _OP_TO_C.get(op)
            if sym:
                self._emit(
                    f"{self._name(target)} = {self._name(target)} {sym} "
                    f"{self._ref(pipe.result)};"
                )
            else:
                fn = _FN_TO_C.get(op, op)
                self._emit(
                    f"{self._name(target)} = {fn}({self._name(target)}, "
                    f"{self._ref(pipe.result)});"
                )

    def _expr(self, node: Prim) -> str:
        args = [self._ref(v) for v in node.inputs]
        if node.op == "mux":
            return f"({args[0]} ? {args[1]} : {args[2]})"
        if node.op in _OP_TO_C:
            return f"({args[0]} {_OP_TO_C[node.op]} {args[1]})"
        fn = _FN_TO_C.get(node.op, node.op)
        if node.op in ("neg", "not"):
            return f"({fn}{args[0]})"
        return f"{fn}({', '.join(args)})"

    def _ref(self, value: Value) -> str:
        if isinstance(value, Const):
            if value.tp.is_float:
                return f"{float(value.value)}f"
            if value.tp.is_bit:
                return "true" if value.value else "false"
            return str(value.value)
        return self._name(value)


def generate_hlsc(design: Design) -> str:
    """Figure 2-style HLS C source for ``design``."""
    from .. import obs

    with obs.span("codegen", backend="hlsc", design=design.name) as sp:
        source = HLSCGenerator(design).generate()
        lines = source.count("\n") + 1
        sp.set(lines=lines)
    return source
