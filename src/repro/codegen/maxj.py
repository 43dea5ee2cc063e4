"""MaxJ code generation (paper Step 5: Figure 1).

The DHDL compiler synthesizes hardware by emitting MaxJ, Maxeler's
Java-based hardware generation language. We generate the same style of
kernel: a ``Kernel`` subclass with counter chains, stream offsets for
double buffers, DSP-mapped arithmetic, and LMem (off-chip) linear access
command generators. Without a Maxeler toolchain the output cannot be
compiled to a bitstream; the generator exists so the full design flow —
parallel patterns -> DHDL -> DSE -> code generation — is exercised and its
output is testable (structure, naming, completeness).
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design
from ..ir.memops import TileTransfer
from ..ir.memories import BRAM, OnChipMemory, PriorityQueue, Reg
from ..ir.node import Const, Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp

_OP_TO_MAXJ = {
    "add": "+", "sub": "-", "mul": "*", "div": "/",
    "lt": "<", "gt": ">", "le": "<=", "ge": ">=", "eq": "===", "ne": "!==",
    "and": "&", "or": "|",
}
_FN_TO_MAXJ = {
    "sqrt": "KernelMath.sqrt", "log": "KernelMath.log",
    "exp": "KernelMath.exp", "abs": "KernelMath.abs",
    "floor": "KernelMath.floor", "min": "KernelMath.min",
    "max": "KernelMath.max", "neg": "-", "not": "~",
}


def _hw_type(tp) -> str:
    if tp.is_float:
        return f"dfeFloat({tp.exp_bits}, {tp.mant_bits})"
    if tp.is_bit:
        return "dfeBool()"
    sign = "dfeInt" if tp.signed else "dfeUInt"
    return f"{sign}({tp.bits})"


class MaxJGenerator:
    """Emit a MaxJ kernel (and manager) for a DHDL design instance."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self._lines: List[str] = []
        self._indent = 0
        self._names: Dict[int, str] = {}

    # -- public -----------------------------------------------------------------
    def kernel(self) -> str:
        """The generated Kernel class source."""
        self._lines = []
        self._emit(f"class {self._class_name()}Kernel extends Kernel {{")
        self._indent += 1
        self._emit(f"{self._class_name()}Kernel(KernelParameters parameters) {{")
        self._indent += 1
        self._emit("super(parameters);")
        self._emit("")
        for mem in self.design.offchip_mems:
            self._emit(
                f"// off-chip: {mem.name} "
                f"[{' x '.join(str(d) for d in mem.dims)}] "
                f": {_hw_type(mem.tp)}"
            )
        self._emit("")
        for mem in self.design.onchip_mems():
            self._emit_memory(mem)
        self._emit("")
        for top in self.design.top_controllers:
            self._emit_controller(top)
        for reg in self.design.arg_outs:
            self._emit(f'io.scalarOutput("{reg.name}", {_hw_type(reg.tp)});')
        self._indent -= 1
        self._emit("}")
        self._indent -= 1
        self._emit("}")
        return "\n".join(self._lines)

    def manager(self) -> str:
        """The generated Manager class (LMem streams + build config)."""
        lines = [
            f"class {self._class_name()}Manager extends CustomManager {{",
            f"    {self._class_name()}Manager(EngineParameters params) {{",
            "        super(params);",
            f'        KernelBlock k = addKernel(new {self._class_name()}'
            'Kernel(makeKernelParameters("kernel")));',
        ]
        for mem in self.design.offchip_mems:
            lines.append(
                f'        k.getInput("{mem.name}") <== '
                f'addLMemInterface().addStreamFromLMem("{mem.name}", '
                "LMemCommandGroup.MemoryAccessPattern.LINEAR_1D);"
            )
        lines += ["    }", "}"]
        return "\n".join(lines)

    def generate(self) -> str:
        """Kernel + manager in one compilation unit."""
        return self.kernel() + "\n\n" + self.manager() + "\n"

    # -- internals -----------------------------------------------------------------
    def _class_name(self) -> str:
        return "".join(
            part.capitalize() for part in self.design.name.split("_")
        )

    def _emit(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def _name(self, node: Node) -> str:
        if node.nid not in self._names:
            self._names[node.nid] = f"{node.name.replace('.', '_')}_{node.nid}"
        return self._names[node.nid]

    def _emit_memory(self, mem: OnChipMemory) -> None:
        if isinstance(mem, BRAM):
            depth = mem.size * (2 if mem.double_buffered else 1)
            self._emit(
                f"Memory<DFEVar> {self._name(mem)} = "
                f"mem.alloc({_hw_type(mem.tp)}, {depth});"
                f" // banks={mem.banks}"
                + (" double-buffered" if mem.double_buffered else "")
            )
        elif isinstance(mem, PriorityQueue):
            self._emit(
                f"// priority queue {self._name(mem)} depth={mem.depth}"
            )
        elif isinstance(mem, Reg):
            self._emit(
                f"DFEVar {self._name(mem)} = "
                f"{_hw_type(mem.tp)}.newInstance(this);"
            )

    def _emit_controller(self, ctrl: Controller) -> None:
        header = f"// {ctrl.kind} {ctrl.name}"
        if ctrl.par > 1:
            header += f" par={ctrl.par}"
        self._emit(header)
        if ctrl.cchain is not None:
            for dim, (extent, step) in enumerate(ctrl.cchain.dims):
                it = ctrl.cchain.iters[dim]
                self._emit(
                    f"DFEVar {self._name(it)} = "
                    f"control.count.makeCounterChain().addCounter"
                    f"({extent}, {step});"
                )
        if isinstance(ctrl, TileTransfer):
            direction = "FromLMem" if ctrl.is_load else "ToLMem"
            self._emit(
                f"LMemCommandStream.makeKernelOutput"
                f'("{ctrl.name}_cmd", /* {ctrl.words} words '
                f"{direction}, par={ctrl.par} */);"
            )
            return
        if isinstance(ctrl, Pipe):
            for node in ctrl.body:
                self._emit_prim(node)
            if ctrl.accum is not None and isinstance(ctrl.result, Value):
                op, target = ctrl.accum
                self._emit(
                    f"// reduction tree (par={ctrl.par}) into "
                    f"{self._name(target)}"
                )
            return
        for child in ctrl.stages:
            self._emit_controller(child)
        if isinstance(ctrl, MetaPipe):
            self._emit(
                f"// stage handshaking for {len(ctrl.stages)}-stage MetaPipe"
            )

    def _emit_prim(self, node: Node) -> None:
        if isinstance(node, Prim):
            args = [self._ref(v) for v in node.inputs]
            if node.op == "mux":
                expr = f"{args[0]} ? {args[1]} : {args[2]}"
            elif node.op in _OP_TO_MAXJ:
                expr = f"{args[0]} {_OP_TO_MAXJ[node.op]} {args[1]}"
            else:
                fn = _FN_TO_MAXJ.get(node.op, node.op)
                expr = f"{fn}({', '.join(args)})"
            self._emit(f"DFEVar {self._name(node)} = {expr};")
        elif isinstance(node, LoadOp):
            idx = ", ".join(self._ref(i) for i in node.indices)
            self._emit(
                f"DFEVar {self._name(node)} = "
                f"{self._name(node.mem)}.read({idx});"
            )
        elif isinstance(node, StoreOp):
            idx = ", ".join(self._ref(i) for i in node.indices)
            self._emit(
                f"{self._name(node.mem)}.write({idx}, "
                f"{self._ref(node.value)});"
            )

    def _ref(self, value: Value) -> str:
        if isinstance(value, Const):
            if value.tp.is_float:
                return f"constant.var({float(value.value)})"
            return f"constant.var({value.value})"
        return self._name(value)


def generate_maxj(design: Design) -> str:
    """Convenience wrapper: full MaxJ source for ``design``."""
    from .. import obs

    with obs.span("codegen", backend="maxj", design=design.name) as sp:
        source = MaxJGenerator(design).generate()
        lines = source.count("\n") + 1
        sp.set(lines=lines)
    return source
