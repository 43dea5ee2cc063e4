"""Bottleneck attribution: why is this design point the speed it is?

The paper's Figure 5 walkthrough classifies every benchmark by its binding
constraint — memory-bound (dotproduct, tpchq6), BRAM-bound (outerprod,
gemm), compute/ALM-bound (blackscholes, kmeans) — by inspecting the design
space. This module automates that reasoning for a single design point:

* which *resource* binds the design (what stops you adding parallelism);
* which *controller* dominates the runtime (where the cycles go);
* whether the dominant stage is streaming DRAM or computing;
* an actionable hint (the knob the DSE would turn next).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..estimation.cycles import CycleEstimate
from ..estimation.estimator import Estimate, Estimator
from ..estimation.power import bandwidth_utilization
from ..ir.controllers import Controller, Pipe
from ..ir.graph import Design, executions
from ..ir.memops import TileTransfer


@dataclass
class Bottleneck:
    """Diagnosis of one design point."""

    design_name: str
    binding_resource: str  # 'alms' | 'dsps' | 'brams' | none ('headroom')
    resource_utilization: Dict[str, float]
    dominant_controller: str
    dominant_kind: str  # 'compute' | 'memory' | 'control'
    dominant_share: float  # fraction of total cycles
    memory_bound: bool
    bandwidth_utilization: float
    hints: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable multi-line diagnosis."""
        util = ", ".join(
            f"{k} {100 * v:.0f}%" for k, v in self.resource_utilization.items()
        )
        kind = "memory-bound" if self.memory_bound else "compute-bound"
        lines = [
            f"{self.design_name}: {kind}; binding resource: "
            f"{self.binding_resource} ({util})",
            f"dominant stage: {self.dominant_controller} "
            f"({self.dominant_kind}, {100 * self.dominant_share:.0f}% of "
            "runtime)",
        ]
        lines += [f"hint: {hint}" for hint in self.hints]
        return "\n".join(lines)


def _leaf_shares(
    design: Design, cycles: CycleEstimate
) -> List[Tuple[Controller, float]]:
    """Total-cycle share of each leaf controller (Pipe / TileTransfer)."""
    shares = []
    for ctrl in design.controllers():
        if not isinstance(ctrl, (Pipe, TileTransfer)):
            continue
        per = cycles.per_controller.get(ctrl.key, 0.0)
        shares.append((ctrl, per * executions(ctrl)))
    total = sum(s for _, s in shares) or 1.0
    return [(c, s / total) for c, s in shares]


def diagnose(
    design: Design,
    estimator: Estimator,
    estimate: Optional[Estimate] = None,
) -> Bottleneck:
    """Attribute a design point's performance to its binding constraints."""
    estimate = estimate or estimator.estimate(design)
    cycles = estimator.estimate_cycles(design)
    util = estimate.utilization()
    binding = max(util, key=util.get)

    shares = _leaf_shares(design, cycles)
    dominant, share = max(shares, key=lambda cs: cs[1], default=(None, 0.0))
    if dominant is None:
        kind, name = "control", "(none)"
    elif isinstance(dominant, TileTransfer):
        kind, name = "memory", dominant.name
    else:
        kind, name = "compute", dominant.name

    bw_util = bandwidth_utilization(design, cycles, estimator.board)
    memory_bound = kind == "memory" or bw_util > 0.85

    hints: List[str] = []
    if memory_bound and bw_util > 0.85:
        hints.append(
            "off-chip bandwidth is saturated; larger tiles or fewer "
            "concurrent streams will not help — this is the roofline"
        )
    elif kind == "memory":
        hints.append(
            f"transfer {name!r} dominates but bandwidth is only "
            f"{100 * bw_util:.0f}% used; raise its parallelization "
            "(words/cycle) or overlap it with compute via a MetaPipe"
        )
    elif kind == "compute":
        if util[binding] > 0.85:
            hints.append(
                f"{binding} nearly exhausted "
                f"({100 * util[binding]:.0f}%); the only headroom is a "
                "cheaper datapath (narrower types, fewer lanes elsewhere)"
            )
        else:
            hints.append(
                f"pipe {name!r} dominates with {binding} at "
                f"{100 * util[binding]:.0f}%; increase its parallelization "
                "factor"
            )
    if not estimate.fits():
        hints.insert(0, "design does not fit the device — reduce "
                        "parallelization or tile sizes")
    return Bottleneck(
        design_name=design.name,
        binding_resource=binding,
        resource_utilization=util,
        dominant_controller=name,
        dominant_kind=kind,
        dominant_share=share,
        memory_bound=memory_bound,
        bandwidth_utilization=bw_util,
        hints=hints,
    )
