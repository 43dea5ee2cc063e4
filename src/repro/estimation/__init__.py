"""Estimation: fast cycle-count and hybrid area models (paper Section IV)."""

from .area import AreaEstimate, RawArea, hybrid_area, raw_area
from .cache import (
    CachedTemplateModels,
    EstimationCaches,
    LRUCache,
    point_key,
)
from .characterize import TemplateModels, characterize_templates
from .counts import Counts
from .cycles import CycleEstimate, estimate_cycles, transfer_cycles
from .estimator import Estimate, Estimator, default_estimator
from .features import N_FEATURES, design_features
from .nn import MLP, MLPConfig, fit_linear
from .plan import ClassPlan
from .power import PowerEstimate, estimate_power
from .samples import generate_sample_design
from .store import load_estimator, save_estimator
from .train import CorrectionModels, train_corrections
from .validation import CrossValidationReport, cross_validate

__all__ = [
    "AreaEstimate",
    "CachedTemplateModels",
    "ClassPlan",
    "CorrectionModels",
    "CrossValidationReport",
    "cross_validate",
    "Counts",
    "CycleEstimate",
    "Estimate",
    "EstimationCaches",
    "Estimator",
    "LRUCache",
    "MLP",
    "MLPConfig",
    "N_FEATURES",
    "PowerEstimate",
    "RawArea",
    "TemplateModels",
    "characterize_templates",
    "default_estimator",
    "design_features",
    "estimate_cycles",
    "estimate_power",
    "fit_linear",
    "generate_sample_design",
    "hybrid_area",
    "load_estimator",
    "point_key",
    "raw_area",
    "save_estimator",
    "train_corrections",
    "transfer_cycles",
]
