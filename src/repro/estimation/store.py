"""Persistence for trained estimator models.

Template characterization and NN training run once per device/toolchain
(paper Section IV-B: model costs "are amortized over many applications").
This module saves and restores the complete model bundle as JSON; the
default estimator's models ship with the package as ``models/maia.json``.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from ..target.board import MAIA, Board
from ..target.device import Device
from .characterize import TemplateModels, _build_specs
from .estimator import Estimator
from .nn import MLP
from .train import CorrectionModels

FORMAT = "repro-estimator-v1"


def shipped_models_path():
    """The packaged model file for the default ``MAIA`` estimator."""
    return files("repro.estimation") / "models" / "maia.json"


def templates_to_dict(models: TemplateModels) -> Dict[str, object]:
    """JSON-safe form of fitted template models."""
    return {
        "device": models.device.name,
        "coefs": {
            key: {name: coef.tolist() for name, coef in outputs.items()}
            for key, outputs in models.coefs.items()
        },
        "fit_residuals": models.fit_residuals,
        "synthesis_runs": models.synthesis_runs,
    }


def templates_from_dict(data: Dict[str, object], device) -> TemplateModels:
    """Rebuild template models from their JSON form (bases come from specs)."""
    models = TemplateModels(device)
    specs = _build_specs()
    for key, outputs in data["coefs"].items():
        models.coefs[key] = {
            name: np.array(coef, dtype=float)
            for name, coef in outputs.items()
        }
        models.bases[key] = specs[key].basis
    models.fit_residuals = dict(data.get("fit_residuals", {}))
    models.synthesis_runs = int(data.get("synthesis_runs", 0))
    return models


def corrections_to_dict(models: CorrectionModels) -> Dict[str, object]:
    """JSON-safe form of the trained correction models."""
    return {
        "routing_net": models.routing_net.to_dict(),
        "dup_reg_net": models.dup_reg_net.to_dict(),
        "unavail_net": models.unavail_net.to_dict(),
        "bram_coef": models.bram_coef.tolist(),
        "training_summary": models.training_summary,
    }


def corrections_from_dict(data: Dict[str, object]) -> CorrectionModels:
    """Rebuild correction models from their JSON form."""
    return CorrectionModels(
        routing_net=MLP.from_dict(data["routing_net"]),
        dup_reg_net=MLP.from_dict(data["dup_reg_net"]),
        unavail_net=MLP.from_dict(data["unavail_net"]),
        bram_coef=np.array(data["bram_coef"], dtype=float),
        training_summary=dict(data.get("training_summary", {})),
    )


def save_estimator(estimator: Estimator, path: Union[str, Path]) -> None:
    """Serialize a trained estimator's models to a JSON file."""
    payload = {
        "format": FORMAT,
        "templates": templates_to_dict(estimator.templates),
        "corrections": corrections_to_dict(estimator.corrections),
    }
    Path(path).write_text(json.dumps(payload))


def load_models(
    path, device: Device
) -> Tuple[TemplateModels, CorrectionModels]:
    """The template and correction models in a JSON model file.

    ``path`` is a file path or an :mod:`importlib.resources` traversable.
    Raises ``ValueError`` on an unknown format or when the file's
    templates were characterized for a device other than ``device``.
    """
    source = Path(path) if isinstance(path, str) else path
    payload = json.loads(source.read_text())
    if payload.get("format") != FORMAT:
        raise ValueError(f"unrecognized estimator file format in {path}")
    saved = payload["templates"]["device"]
    if saved != device.name:
        raise ValueError(
            f"{path} holds models for device {saved!r}, not {device.name!r}"
        )
    return (
        templates_from_dict(payload["templates"], device),
        corrections_from_dict(payload["corrections"]),
    )


def load_estimator(path: Union[str, Path], board: Board = MAIA) -> Estimator:
    """Reconstruct an estimator from a JSON model file (no retraining)."""
    templates, corrections = load_models(path, board.device)
    return Estimator(board, templates=templates, corrections=corrections)
