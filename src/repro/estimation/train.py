"""Training of the design-level correction models (paper Section IV-B2).

One neural network is trained for each of three place-and-route effects —
routing LUT usage, register duplication, and unavailable LUTs — on a common
set of randomly generated design samples, using the synthesis substrate as
ground truth. Duplicated block RAMs are fit with a simple linear function
of routing LUTs (the paper found complex models did no better). Like the
template models, these corrections are application-independent and need
training only once per device and toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..target.board import MAIA, Board
from .characterize import TemplateModels
from .counts import Counts
from .features import design_features
from .nn import MLP, MLPConfig, MLPStack, fit_linear

DEFAULT_SAMPLES = 200


#: Clamps of the routing, duplicated-register and unavailable-LUT fractions.
NET_CLAMPS = ((0.01, 0.5), (0.0, 0.4), (0.0, 0.3))


@dataclass(frozen=True)
class CorrectionModels:
    """Trained NN + linear corrections applied on top of raw counts.

    Frozen: the three nets are stacked (:class:`MLPStack`) once, here.
    """

    routing_net: MLP
    dup_reg_net: MLP
    unavail_net: MLP
    bram_coef: np.ndarray  # dup_brams ~ c0 + c1 * routing_luts
    training_summary: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nets = [self.routing_net, self.dup_reg_net, self.unavail_net]
        object.__setattr__(self, "_stack", MLPStack(nets, NET_CLAMPS))

    def predict_routing_luts(self, feats: Sequence[float], raw: Counts) -> float:
        """Route-through LUTs from design features (NN fraction x raw LUTs)."""
        return float(self.predict_batch([feats], [raw])[0][0])

    def predict_duplicated_regs(self, feats: Sequence[float], raw: Counts) -> float:
        """Registers duplicated for fanout reduction (NN fraction x raw regs)."""
        return float(self.predict_batch([feats], [raw])[1][0])

    def predict_unavailable_luts(self, feats: Sequence[float], raw: Counts) -> float:
        """LUTs lost to LAB mapping constraints (NN fraction x raw LUTs)."""
        return float(self.predict_batch([feats], [raw])[2][0])

    def predict_batch(
        self,
        feats_rows: Sequence[Sequence[float]],
        raws: Sequence[Counts],
    ):
        """All four corrections for a block of designs, vectorized.

        One stacked forward of the three nets over the feature matrix
        (:class:`MLPStack`). It is batch-size invariant, so each row's
        result is bit for bit the same in a block of any size. One row
        (scalar calls, guided search, the per-design path) takes
        :attr:`MLPStack.predict_row`: the same bits, one numpy call. Returns
        ``(routing_luts, duplicated_regs, unavailable_luts,
        duplicated_brams)`` arrays of length ``len(raws)``.
        """
        if len(feats_rows) != len(raws):
            raise ValueError(f"expected {len(raws)} feature rows (one per "
                             f"raw count), got {len(feats_rows)}")
        # A row of the wrong width takes the block path, which raises.
        if len(raws) == 1 and len(feats_rows[0]) == len(self._stack.x_mean):
            (raw,) = raws
            routing, dup_regs, unavailable = self._stack.predict_row(
                feats_rows[0])
            routing *= raw.luts
            return tuple(np.array([
                routing, dup_regs * raw.regs, unavailable * raw.luts,
                self.predict_duplicated_brams(routing, raw),
            ])[:, None])
        if not raws:
            empty = np.empty(0, dtype=float)
            return empty, empty, empty, empty
        luts, regs, brams = np.array(
            [(raw.luts, raw.regs, raw.brams) for raw in raws], dtype=float
        ).T
        fracs = self._stack.predict(feats_rows)
        routing, dup_regs, unavailable = fracs * np.array([luts, regs, luts])
        routing_frac = routing / np.maximum(luts, 1.0)
        frac = self.bram_coef[0] + self.bram_coef[1] * routing_frac
        dup_brams = np.clip(frac, 0.0, 1.0) * brams
        return routing, dup_regs, unavailable, dup_brams

    def predict_duplicated_brams(self, routing_luts: float, raw: Counts) -> float:
        """Duplicated BRAMs: a simple linear fit driven by routing LUTs.

        The fit predicts the duplication *fraction* from the routing-LUT
        fraction (the paper's observation that BRAM duplication tracks
        routing complexity), then scales by the design's BRAM count.
        Duplication is clamped to the paper's observed 0-100% range.
        """
        routing_frac = routing_luts / max(raw.luts, 1.0)
        frac = float(self.bram_coef[0] + self.bram_coef[1] * routing_frac)
        return min(max(frac, 0.0), 1.0) * raw.brams


def train_corrections(
    models: TemplateModels,
    board: Board = MAIA,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
    epochs: int = 400,
) -> CorrectionModels:
    """Generate sample designs, synthesize them, and train the corrections."""
    x, targets, dup_bram_frac = sample_dataset(models, board, n_samples, seed)

    def train_net(y: np.ndarray, net_seed: int) -> MLP:
        net = MLP(MLPConfig(seed=net_seed, epochs=epochs))
        net.fit(x, y)
        return net

    routing_net = train_net(targets["routing"], 11)
    dup_reg_net = train_net(targets["dup_regs"], 22)
    unavail_net = train_net(targets["unavailable"], 33)
    if dup_bram_frac:
        fracs = np.array([f for f, _ in dup_bram_frac])
        routes = np.array([r for _, r in dup_bram_frac])
        bram_coef = fit_linear(routes[:, None], fracs)
    else:  # pragma: no cover - training sets always contain BRAMs
        bram_coef = np.array([0.1, 0.0])

    summary = {
        "n_samples": float(n_samples),
        "routing_loss": routing_net.loss_history[-1],
        "dup_reg_loss": dup_reg_net.loss_history[-1],
        "unavail_loss": unavail_net.loss_history[-1],
        "mean_routing_frac": float(np.mean(targets["routing"])),
        "mean_dup_reg_frac": float(np.mean(targets["dup_regs"])),
        "mean_unavail_frac": float(np.mean(targets["unavailable"])),
    }
    return CorrectionModels(
        routing_net, dup_reg_net, unavail_net, bram_coef, summary
    )


def sample_dataset(
    models: TemplateModels, board: Board, n_samples: int, seed: int,
) -> Tuple[np.ndarray, Dict[str, np.ndarray], List[Tuple[float, float]]]:
    """Features and synthesis-measured fractions of generated designs.

    Returns the feature matrix, the ``routing``, ``dup_regs`` and
    ``unavailable`` fractions (of raw LUTs, registers and LUTs), and
    ``(duplicated-BRAM fraction, routing fraction)`` pairs for the samples
    with at least one BRAM.
    """
    # Local imports: area would be a module cycle, and synthesis and the
    # sample generator load only when a board is actually trained.
    from ..synth.synthesis import synthesize
    from .area import raw_area
    from .samples import generate_sample_design

    features: List[List[float]] = []
    targets: Dict[str, List[float]] = {
        "routing": [], "dup_regs": [], "unavailable": []
    }
    dup_bram_frac: List[Tuple[float, float]] = []
    for k in range(n_samples):
        design = generate_sample_design(seed * 10_000 + k)
        raw = raw_area(design, models)
        report = synthesize(design, board)
        features.append(design_features(design, raw.counts, raw.wire_bits))
        luts = max(raw.counts.luts, 1.0)
        regs = max(raw.counts.regs, 1.0)
        routing = report.routing_luts / luts
        targets["routing"].append(routing)
        targets["dup_regs"].append(report.duplicated_regs / regs)
        targets["unavailable"].append(report.unavailable_luts / luts)
        if raw.counts.brams >= 1.0:
            dup_bram_frac.append(
                (report.duplicated_brams / raw.counts.brams, routing)
            )
    return (
        np.array(features, dtype=float),
        {k: np.array(v, dtype=float) for k, v in targets.items()},
        dup_bram_frac,
    )
