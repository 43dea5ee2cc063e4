"""Benchmark interface and registry (paper Table II).

Each benchmark bundles everything the evaluation needs:

* a parameterized DHDL design builder (the metaprogrammed program);
* the paper's dataset size and a scaled-down size for functional tests;
* the legal parameter space with the Section IV-C pruning heuristics;
* input generation and a numpy reference for correctness checking;
* a calibrated CPU-time model for the Figure 6 comparison.
"""

from __future__ import annotations

import abc
import importlib
from typing import Dict, List, Optional

import numpy as np

from ..cpu.model import XEON_E5_2630, CPUModel
from ..ir.graph import Design
from ..params import ParamSpace

Dataset = Dict[str, int]
Params = Dict[str, object]
Inputs = Dict[str, np.ndarray]

# On-chip buffer capacity cap used by the legality constraints
# (paper IV-C: "the total size of each local memory is limited to a
# fixed maximum value").
MAX_TILE_WORDS = 48 * 1024


class Benchmark(abc.ABC):
    """One evaluation benchmark: builder, datasets, spaces, references."""

    name: str = ""
    description: str = ""

    @abc.abstractmethod
    def default_dataset(self) -> Dataset:
        """The paper's Table II dataset size."""

    @abc.abstractmethod
    def small_dataset(self) -> Dataset:
        """A scaled-down dataset for functional simulation tests."""

    @abc.abstractmethod
    def param_space(self, dataset: Dataset) -> ParamSpace:
        """Legal design parameters for the given dataset."""

    @abc.abstractmethod
    def build(self, dataset: Dataset, **params) -> Design:
        """Instantiate a design point with concrete parameter values."""

    @abc.abstractmethod
    def default_params(self, dataset: Dataset) -> Params:
        """A reasonable hand-picked design point (used by tests/examples)."""

    @abc.abstractmethod
    def generate_inputs(self, dataset: Dataset, rng: np.random.Generator) -> Inputs:
        """Random inputs for functional validation."""

    @abc.abstractmethod
    def reference(self, inputs: Inputs, dataset: Dataset) -> Dict[str, np.ndarray]:
        """Golden outputs from the numpy reference kernel."""

    @abc.abstractmethod
    def cpu_time(self, dataset: Dataset, cpu: CPUModel = XEON_E5_2630) -> float:
        """Modeled runtime of the optimized multicore CPU implementation."""

    @abc.abstractmethod
    def check_outputs(
        self,
        outputs: Dict[str, object],
        expected: Dict[str, np.ndarray],
    ) -> bool:
        """Compare functional-simulation outputs against the reference."""

    # -- shared helpers -------------------------------------------------------------
    def flops(self, dataset: Dataset) -> float:
        """Floating-point operations in one execution (0 if not meaningful)."""
        return 0.0


_REGISTRY: Dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    """Add a benchmark to the Table II registry (name must be unique)."""
    if benchmark.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {benchmark.name!r}")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


#: The Table II benchmarks in the paper's order; each registers itself
#: from the module of its name.
_TABLE_II = ("dotproduct", "outerprod", "gemm", "tpchq6", "blackscholes",
             "gda", "kmeans")


def get_benchmark(name: str) -> Benchmark:
    """Look up one Table II benchmark by name, importing only its module."""
    if name not in _REGISTRY and name in _TABLE_II:
        importlib.import_module(f"{__package__}.{name}")
    return _REGISTRY[name]


def all_benchmarks() -> List[Benchmark]:
    """All Table II benchmarks in the paper's order."""
    return [get_benchmark(name) for name in _TABLE_II]
