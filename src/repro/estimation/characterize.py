"""Template characterization: fit analytical area models from synthesis runs.

For every DHDL template family we synthesize a handful of isolated
instances across parameter combinations (paper Section IV-B: "most
templates require about six synthesized designs") and fit least-squares
models over simple bases in the template parameters. The resulting
:class:`TemplateModels` are application-independent and characterized once
per device/toolchain, then reused for every design estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..ir.primitives import OP_INFO
from ..target.device import STRATIX_V, Device
from .counts import Counts

OUTPUTS = ("luts_packable", "luts_unpackable", "regs", "dsps", "brams")

Params = Dict[str, object]
BasisFn = Callable[[Params], List[float]]


def _log2p(x: float) -> float:
    return math.log2(x + 1.0)


# -- basis functions per template family ------------------------------------------


def prim_basis(p: Params) -> List[float]:
    """Basis for primitive ops: width, width x bits, sublinear sharing term."""
    w, b = float(p["width"]), float(p["bits"])
    return [1.0, w, w * b, w * _log2p(w)]


def access_basis(p: Params) -> List[float]:
    """Basis for on-chip loads/stores, incl. the bank-select mux term."""
    w, b, banks = float(p["width"]), float(p["bits"]), float(p["banks"])
    # The last term models the bank-select mux tree, whose size grows with
    # both the access width and the number of banks being selected among.
    return [
        1.0,
        w,
        w * b,
        w * b * _log2p(banks),
        b * max(banks - 1.0, 0.0) * w * w / max(banks, 1.0),
    ]


def counter_basis(p: Params) -> List[float]:
    """Basis for counter chains: dimensions and vector width."""
    return [1.0, float(p["ndims"]), float(p["par"])]


def control_basis(p: Params) -> List[float]:
    """Basis for controller FSMs: stage/body count."""
    return [1.0, float(p["n"])]


def tile_basis(p: Params) -> List[float]:
    """Basis for tile transfers: port width and command count."""
    par, b = float(p["par"]), float(p["bits"])
    return [1.0, par, b * par, _log2p(float(p["num_commands"]))]


def bram_basis(p: Params) -> List[float]:
    """Basis for BRAM bank control logic."""
    banks, b = float(p["banks"]), float(p["bits"])
    return [1.0, banks, banks * b, 1.0 if p.get("double") else 0.0]


def reg_basis(p: Params) -> List[float]:
    """Basis for registers: width and double buffering."""
    b = float(p["bits"])
    return [1.0, b, b if p.get("double") else 0.0]


def pqueue_basis(p: Params) -> List[float]:
    """Basis for priority queues: depth and entry width."""
    d, b = float(p["depth"]), float(p["bits"])
    return [1.0, d, d * b]


@dataclass
class FamilySpec:
    """How to characterize one template family."""

    kind: str
    basis: BasisFn
    grid: List[Params]
    # Outputs taken from analytical geometry rather than fitting.
    analytic_outputs: Tuple[str, ...] = ()


def _prim_grid(op: str) -> List[Tuple[str, List[Params]]]:
    """(model_key_suffix, parameter combos) for one primitive op."""
    if op in ("and", "or", "not"):
        families = [("bit", [1]), ("fix", [16, 32, 64])]
    else:
        families = [("flt", [32, 64]), ("fix", [16, 32, 64])]
    out = []
    for family, bit_options in families:
        grid = [
            {"op": op, "family": family, "bits": bits, "width": width}
            for bits in bit_options
            for width in (1, 2, 4, 8, 16, 32, 64)
        ]
        out.append((family, grid))
    return out


def _build_specs() -> Dict[str, FamilySpec]:
    specs: Dict[str, FamilySpec] = {}
    for op in OP_INFO:
        for family, grid in _prim_grid(op):
            specs[f"prim:{op}:{family}"] = FamilySpec("prim", prim_basis, grid)
    for kind in ("load", "store"):
        grid = [
            {"bits": bits, "width": width, "banks": banks}
            for bits in (1, 32, 64)
            for banks in (1, 2, 4, 8, 16, 32, 64)
            for width in {1, banks}
        ]
        specs[kind] = FamilySpec(kind, access_basis, grid)
    specs["counter"] = FamilySpec(
        "counter",
        counter_basis,
        [
            {"ndims": nd, "par": par}
            for nd in (1, 2, 3)
            for par in (1, 2, 4, 8, 16, 32)
        ],
    )
    for kind in ("pipe", "metapipe", "sequential", "parallel"):
        specs[kind] = FamilySpec(
            kind, control_basis, [{"n": n} for n in (1, 2, 4, 8, 16, 32)]
        )
    specs["tile_transfer"] = FamilySpec(
        "tile_transfer",
        tile_basis,
        [
            {"bits": bits, "par": par, "num_commands": nc, "is_load": isld}
            for bits in (1, 32)
            for par in (1, 4, 16, 64)
            for nc in (1, 96, 1536)
            for isld in (True, False)
        ],
    )
    specs["bram"] = FamilySpec(
        "bram",
        bram_basis,
        [
            {"words": 4096, "bits": bits, "banks": banks, "double": dbl}
            for bits in (1, 32)
            for banks in (1, 4, 16, 48)
            for dbl in (False, True)
        ],
        analytic_outputs=("brams",),
    )
    specs["reg"] = FamilySpec(
        "reg",
        reg_basis,
        [
            {"bits": bits, "double": dbl}
            for bits in (1, 32, 64)
            for dbl in (False, True)
        ],
    )
    specs["pqueue"] = FamilySpec(
        "pqueue",
        pqueue_basis,
        [
            {"depth": d, "bits": b}
            for d in (4, 16, 64, 256)
            for b in (32, 64)
        ],
    )
    return specs


@dataclass
class TemplateModels:
    """Fitted per-template area models (characterized once per device)."""

    device: Device
    coefs: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    bases: Dict[str, BasisFn] = field(default_factory=dict)
    fit_residuals: Dict[str, float] = field(default_factory=dict)
    synthesis_runs: int = 0

    def predict(self, key: str, params: Params) -> Counts:
        """Estimate the resources of one template instance."""
        if key not in self.coefs:
            raise KeyError(f"no characterized model for template {key!r}")
        basis = np.array(self.bases[key](params), dtype=float)
        values = {
            name: max(float(basis @ coef), 0.0)
            for name, coef in self.coefs[key].items()
        }
        return Counts(
            values.get("luts_packable", 0.0),
            values.get("luts_unpackable", 0.0),
            values.get("regs", 0.0),
            values.get("dsps", 0.0),
            values.get("brams", 0.0),
        )

    def prim_key(self, op: str, tp) -> str:
        """Model key for a primitive op on operand type ``tp``."""
        family = "flt" if tp.is_float else ("bit" if tp.is_bit else "fix")
        key = f"prim:{op}:{family}"
        if key not in self.coefs:  # bit-typed arithmetic falls back to fixed
            key = f"prim:{op}:fix"
        return key


def characterize_templates(device: Device = STRATIX_V) -> TemplateModels:
    """Run all characterization microbenchmarks and fit template models."""
    from ..synth.microbench import characterize

    models = TemplateModels(device)
    for key, spec in _build_specs().items():
        rows: List[List[float]] = []
        targets: Dict[str, List[float]] = {name: [] for name in OUTPUTS}
        for params in spec.grid:
            atom = characterize(spec.kind, device, **params)
            models.synthesis_runs += 1
            rows.append(spec.basis(params))
            for name in OUTPUTS:
                targets[name].append(getattr(atom, name))
        x = np.array(rows, dtype=float)
        coefs: Dict[str, np.ndarray] = {}
        residual_total = 0.0
        for name in OUTPUTS:
            if name in spec.analytic_outputs:
                continue
            y = np.array(targets[name], dtype=float)
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            coefs[name] = coef
            pred = x @ coef
            denom = max(float(np.abs(y).mean()), 1.0)
            residual_total += float(np.abs(pred - y).mean()) / denom
        models.coefs[key] = coefs
        models.bases[key] = spec.basis
        models.fit_residuals[key] = residual_total / len(OUTPUTS)
    return models
