"""Power and energy estimation — an extension beyond the paper.

The paper's related work (Chen et al., ASP-DAC'07) drives design space
exploration with high-level *power* estimates; the DHDL paper itself stops
at area and runtime. This module adds the missing axis: a resource-based
power model in the style of FPGA vendor early-power estimators, so designs
can also be compared by energy per run — including against the CPU
baseline (the Xeon E5-2630's 95 W TDP).

Model: ``P = P_static + P_dynamic`` where static power is device leakage
plus per-used-resource leakage, and dynamic power scales with clock rate,
resource counts, and an activity factor derived from the cycle estimate
(compute that idles while waiting on DRAM burns little dynamic power).
Coefficients are representative of 28 nm FPGA early-power-estimator data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ir.graph import Design, executions, total_dram_bytes
from ..target.board import MAIA, Board
from .area import AreaEstimate
from .cycles import CycleEstimate, estimate_cycles

# 28nm-class coefficients (W per resource at 100% toggle, 150 MHz).
DEVICE_STATIC_W = 2.1
ALM_DYNAMIC_W = 9.0e-6
ALM_STATIC_W = 1.1e-6
DSP_DYNAMIC_W = 1.1e-3
DSP_STATIC_W = 9.0e-5
BRAM_DYNAMIC_W = 8.0e-4
BRAM_STATIC_W = 1.3e-4
REG_DYNAMIC_W = 1.2e-6
DRAM_INTERFACE_W = 1.9  # PHY + controller at full streaming rate
DEFAULT_TOGGLE_RATE = 0.25  # average signal activity in active logic


@dataclass
class PowerEstimate:
    """Estimated power draw and per-run energy for one design."""

    static_w: float
    dynamic_w: float
    dram_w: float
    activity: float
    runtime_s: float
    breakdown: Dict[str, float]

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w + self.dram_w

    @property
    def energy_j(self) -> float:
        """Energy for one execution of the design."""
        return self.total_w * self.runtime_s


def compute_activity(design: Design, cycles: CycleEstimate) -> float:
    """Fraction of total runtime the datapath is actively computing.

    The dominant Pipe's busy cycles over the total runtime: a design whose
    pipes sit idle while sequentialized DRAM transfers complete burns
    little dynamic logic power, while an overlapped (MetaPipe) design keeps
    its datapath toggling nearly every cycle.
    """
    from ..ir.controllers import Pipe

    pipe_cycles = 0.0
    for ctrl in design.controllers():
        per = cycles.per_controller.get(ctrl.key, 0.0)
        if isinstance(ctrl, Pipe):
            pipe_cycles = max(pipe_cycles, per * executions(ctrl))
    if cycles.total <= 0 or pipe_cycles <= 0:
        return 0.5
    return min(max(pipe_cycles / cycles.total, 0.05), 1.0)


def estimate_power(
    design: Design,
    area: AreaEstimate,
    cycles: CycleEstimate = None,
    board: Board = MAIA,
    toggle_rate: float = DEFAULT_TOGGLE_RATE,
) -> PowerEstimate:
    """Estimate the power draw of a design instance on ``board``."""
    if cycles is None:
        cycles = estimate_cycles(design, board)
    activity = compute_activity(design, cycles)
    clock_scale = board.fabric_clock_hz / 150e6

    static = (
        DEVICE_STATIC_W
        + area.alms * ALM_STATIC_W
        + area.dsps * DSP_STATIC_W
        + area.brams * BRAM_STATIC_W
    )
    logic = area.alms * ALM_DYNAMIC_W * toggle_rate
    dsp = area.dsps * DSP_DYNAMIC_W * toggle_rate * 2.0  # arithmetic-dense
    bram = area.brams * BRAM_DYNAMIC_W * toggle_rate
    regs = area.regs * REG_DYNAMIC_W * toggle_rate
    dynamic = (logic + dsp + bram + regs) * activity * clock_scale

    # DRAM interface power scales with achieved bandwidth utilization.
    runtime_s = cycles.seconds
    bw_util = bandwidth_utilization(design, cycles, board)
    dram = DRAM_INTERFACE_W * (0.25 + 0.75 * bw_util)

    return PowerEstimate(
        static_w=static,
        dynamic_w=dynamic,
        dram_w=dram,
        activity=activity,
        runtime_s=runtime_s,
        breakdown=dict(
            logic=logic * activity,
            dsp=dsp * activity,
            bram=bram * activity,
            regs=regs * activity,
            static=static,
            dram=dram,
        ),
    )


def bandwidth_utilization(
    design: Design, cycles: CycleEstimate, board: Board
) -> float:
    """Achieved DRAM bandwidth as a share of the board's, capped at 1."""
    if cycles.total <= 0:
        return 0.0
    achieved = total_dram_bytes(design) / cycles.seconds
    return min(achieved / board.dram_effective_bw, 1.0)
