"""Small artificial neural networks for design-level area corrections.

The paper models LUT routing usage, register duplication, and unavailable
LUTs with three-layer fully-connected networks — eleven input nodes, six
hidden nodes, one output — built on the Encog library (Section IV-B2).
This is the numpy equivalent: a sigmoid hidden layer, linear output, and
resilient backpropagation (RPROP, Encog's default trainer), with input
standardization. Training is deterministic given a seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Encog's RPROP step sizes: initial, growth and shrink factors, bounds.
INIT_UPDATE = 0.1
ETA_PLUS = 1.2
ETA_MINUS = 0.5
MAX_UPDATE = 50.0
MIN_UPDATE = 1e-6


@dataclass
class MLPConfig:
    """Hyper-parameters for :class:`MLP`."""

    n_inputs: int = 11
    n_hidden: int = 6
    epochs: int = 400
    seed: int = 0


class MLP:
    """A three-layer perceptron trained with RPROP.

    Weights: ``w1`` (hidden x inputs), ``b1`` (hidden), ``w2`` (1 x hidden),
    ``b2`` (1). Inputs are standardized to zero mean / unit variance with
    statistics captured at fit time; the output is linear.
    """

    def __init__(self, config: Optional[MLPConfig] = None) -> None:
        self.config = config or MLPConfig()
        rng = np.random.default_rng(self.config.seed)
        c = self.config
        scale = 1.0 / np.sqrt(c.n_inputs)
        self.w1 = rng.normal(0.0, scale, (c.n_hidden, c.n_inputs))
        self.b1 = np.zeros(c.n_hidden)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(c.n_hidden), (1, c.n_hidden))
        self.b2 = np.zeros(1)
        self.x_mean = np.zeros(c.n_inputs)
        self.x_std = np.ones(c.n_inputs)
        self.y_mean = 0.0
        self.y_std = 1.0
        self.loss_history: List[float] = []

    # -- forward -----------------------------------------------------------------
    def _forward(self, x: np.ndarray):
        z1 = x @ self.w1.T + self.b1
        h = 1.0 / (1.0 + np.exp(-np.clip(z1, -40, 40)))
        y = h @ self.w2.T + self.b2
        return h, y

    @staticmethod
    def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batch-size-invariant affine map of ``K`` stacked nets at once.

        ``x (J, K, N)``, ``w (J, K, M, 1)``, ``b (K, M, 1)`` -> ``(K, M, N)``,
        each net's ``x @ w.T + b`` in value. BLAS matmuls and pairwise
        ``np.sum`` choose accumulation orders by shape, so rows could drift
        ~1e-15 between batch sizes. Here every element is ``x0*w0``, then
        ``+ xj*wj`` left to right, then ``+ b``, so a row's bits depend on
        neither its batch nor the other nets (the batched-estimation
        bit-identity guarantee). Training keeps the BLAS ``_forward``.
        """
        return functools.reduce(np.add, x[:, :, None, :] * w) + b

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for raw (unstandardized) inputs.

        Accepts one feature row or a stacked batch; the result for any
        row is bit-identical either way (see :meth:`_affine`).
        """
        return MLPStack([self], [(-np.inf, np.inf)]).predict(x)[0]

    # -- training ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLP":
        """Train on the full batch with RPROP until ``epochs`` elapse."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[1] != self.config.n_inputs:
            raise ValueError(
                f"expected inputs with {self.config.n_inputs} features, "
                f"got shape {x.shape}"
            )
        self.x_mean = x.mean(axis=0)
        self.x_std = x.std(axis=0)
        self.x_std[self.x_std < 1e-12] = 1.0
        self.y_mean = float(y.mean())
        self.y_std = float(y.std()) or 1.0
        xs = (x - self.x_mean) / self.x_std
        ys = (y - self.y_mean) / self.y_std

        params = [self.w1, self.b1, self.w2, self.b2]
        updates = [np.full_like(p, INIT_UPDATE) for p in params]
        prev_grads = [np.zeros_like(p) for p in params]
        self.loss_history = []

        for _ in range(self.config.epochs):
            grads, loss = self._gradients(xs, ys)
            self.loss_history.append(loss)
            for p, g, u, pg in zip(params, grads, updates, prev_grads):
                sign = g * pg
                grew = sign > 0
                shrank = sign < 0
                u[grew] = np.minimum(u[grew] * ETA_PLUS, MAX_UPDATE)
                u[shrank] = np.maximum(u[shrank] * ETA_MINUS, MIN_UPDATE)
                g = g.copy()
                g[shrank] = 0.0  # iRPROP-: skip update after sign change
                p -= np.sign(g) * u
                pg[...] = g
        return self

    def _gradients(self, xs: np.ndarray, ys: np.ndarray):
        n = xs.shape[0]
        h, out = self._forward(xs)
        err = out[:, 0] - ys
        loss = float(np.mean(err**2))
        d_out = (2.0 / n) * err[:, None]
        g_w2 = d_out.T @ h
        g_b2 = d_out.sum(axis=0)
        d_h = d_out @ self.w2 * h * (1 - h)
        g_w1 = d_h.T @ xs
        g_b1 = d_h.sum(axis=0)
        return [g_w1, g_b1, g_w2, g_b2], loss

    # -- serialization -------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialization of weights and normalization state."""
        return {
            "n_inputs": self.config.n_inputs,
            "n_hidden": self.config.n_hidden,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MLP":
        config = MLPConfig(
            n_inputs=int(data["n_inputs"]), n_hidden=int(data["n_hidden"])
        )
        net = cls(config)
        net.w1 = np.array(data["w1"], dtype=float)
        net.b1 = np.array(data["b1"], dtype=float)
        net.w2 = np.array(data["w2"], dtype=float)
        net.b2 = np.array(data["b2"], dtype=float)
        net.x_mean = np.array(data["x_mean"], dtype=float)
        net.x_std = np.array(data["x_std"], dtype=float)
        net.y_mean = float(data["y_mean"])
        net.y_std = float(data["y_std"])
        return net


class MLPStack:
    """``K`` trained nets of one shape, evaluated in one forward pass.

    Copies the nets' weights, input means and stds (stacked input-major
    for :meth:`MLP._affine`) and one ``(lo, hi)`` output clamp per net.
    """

    def __init__(
        self, nets: Sequence[MLP], clamps: Sequence[Tuple[float, float]]
    ) -> None:
        self.x_mean = np.stack([n.x_mean for n in nets], 1)[:, :, None]
        self.x_std = np.stack([n.x_std for n in nets], 1)[:, :, None]
        self.w1 = np.stack([n.w1.T for n in nets], 1)[..., None]
        self.b1 = np.stack([n.b1 for n in nets])[..., None]
        self.w2 = np.stack([n.w2.T for n in nets], 1)[..., None]
        self.b2 = np.stack([n.b2 for n in nets])[..., None]
        self.y_std = np.array([[n.y_std] for n in nets])
        self.y_mean = np.array([[n.y_mean] for n in nets])
        self.lo, self.hi = np.array(clamps, dtype=float).T[..., None]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``(K, N)`` clamped outputs for ``N`` raw feature rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != len(self.x_mean):
            raise ValueError(
                f"expected inputs with {len(self.x_mean)} features, "
                f"got shape {x.shape}"
            )
        xs = (x.T[:, None, :] - self.x_mean) / self.x_std
        z1 = MLP._affine(xs, self.w1, self.b1)
        h = 1.0 / (1.0 + np.exp(-np.clip(z1, -40, 40)))
        y = MLP._affine(h.transpose(1, 0, 2), self.w2, self.b2)[:, 0]
        return np.clip(y * self.y_std + self.y_mean, self.lo, self.hi)


def fit_linear(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares linear fit (with intercept), returning coefficients.

    Used for the BRAM duplication model, which the paper found was best
    served by "a simple linear fit" (Section V-B).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and x.shape[1] > 1 and np.asarray(y).size == x.shape[1]:
        x = x.T
    a = np.hstack([np.ones((x.shape[0], 1)), x])
    coef, *_ = np.linalg.lstsq(a, np.asarray(y, dtype=float), rcond=None)
    return coef
