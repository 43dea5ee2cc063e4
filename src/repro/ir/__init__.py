"""DHDL — the Delite Hardware Definition Language intermediate representation.

The public surface mirrors the paper's Table I: primitive nodes, memories,
controllers, and memory command generators, plus the embedded-DSL builder
used to write benchmarks and the design container with finalization.
"""

from .types import (
    Bit,
    Bool,
    FixPt,
    Float32,
    Float64,
    FltPt,
    HWType,
    Index,
    Int32,
    Int64,
    TypeError_,
    UInt32,
    common_type,
)
from .node import Const, IRError, Node, Value
from .primitives import OP_INFO, LoadOp, Prim, StoreOp, op_latency
from .memories import BRAM, ArgOut, OffChipMem, OnChipMemory, PriorityQueue, Reg
from .controllers import (
    Controller,
    CounterChain,
    CounterIter,
    MetaPipe,
    Parallel,
    Pipe,
    Sequential,
)
from .memops import TileLd, TileSt, TileTransfer
from .graph import Design, current_design
from .pretty import format_design
from . import builder

__all__ = [
    "BRAM",
    "ArgOut",
    "Bit",
    "Bool",
    "Const",
    "Controller",
    "CounterChain",
    "CounterIter",
    "Design",
    "FixPt",
    "Float32",
    "Float64",
    "FltPt",
    "HWType",
    "IRError",
    "Index",
    "Int32",
    "Int64",
    "LoadOp",
    "MetaPipe",
    "Node",
    "OP_INFO",
    "OffChipMem",
    "OnChipMemory",
    "Parallel",
    "Pipe",
    "Prim",
    "PriorityQueue",
    "Reg",
    "Sequential",
    "StoreOp",
    "TileLd",
    "TileSt",
    "TileTransfer",
    "TypeError_",
    "UInt32",
    "Value",
    "builder",
    "common_type",
    "current_design",
    "format_design",
    "op_latency",
]
