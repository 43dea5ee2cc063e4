"""Simulation substrate: cycle-level runtime ground truth + functional execution.

:func:`build_timeline` is the one layout of a simulated schedule: its
intervals feed both the ASCII Gantt chart and the simulated-time Chrome
trace (:meth:`Timeline.to_chrome_trace`, ``repro speedup --sim-trace``).
"""

from .dram import TransferTiming, interleave_efficiency, simulate_transfer
from .executor import SimResult, simulate
from .functional import FunctionalSim, quantize_fixed
from .timeline import Interval, Timeline, build_timeline

__all__ = [
    "FunctionalSim",
    "Interval",
    "Timeline",
    "build_timeline",
    "quantize_fixed",
    "SimResult",
    "TransferTiming",
    "interleave_efficiency",
    "simulate",
    "simulate_transfer",
]
