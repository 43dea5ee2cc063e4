"""Estimation: fast cycle-count and hybrid area models (paper Section IV)."""

from .. import lazy_exports

# Each exported name and the module that defines it, imported on first use.
_EXPORTS = {
    "AreaEstimate": "area",
    "RawArea": "area",
    "hybrid_area": "area",
    "raw_area": "area",
    "CachedTemplateModels": "cache",
    "EstimationCaches": "cache",
    "LRUCache": "cache",
    "point_key": "cache",
    "TemplateModels": "characterize",
    "characterize_templates": "characterize",
    "Counts": "counts",
    "CycleEstimate": "cycles",
    "estimate_cycles": "cycles",
    "Estimate": "estimator",
    "Estimator": "estimator",
    "default_estimator": "estimator",
    "N_FEATURES": "features",
    "design_features": "features",
    "MLP": "nn",
    "MLPConfig": "nn",
    "fit_linear": "nn",
    "ClassPlan": "plan",
    "PowerEstimate": "power",
    "estimate_power": "power",
    "generate_sample_design": "samples",
    "load_estimator": "store",
    "save_estimator": "store",
    "CorrectionModels": "train",
    "train_corrections": "train",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
