"""repro — reproduction of "Automatic Generation of Efficient Accelerators
for Reconfigurable Hardware" (Koeplinger et al., ISCA 2016).

The package implements the paper's full flow (Figure 1):

1. Parallel patterns (:mod:`repro.patterns`) lower to the DHDL IR
   (:mod:`repro.ir`) with fusion and tiling.
2. Fast estimation (:mod:`repro.estimation`) predicts cycle counts and
   FPGA area using characterized template models plus neural-network
   corrections for place-and-route effects.
3. Design space exploration (:mod:`repro.dse`) samples the pruned space of
   tile sizes, parallelization factors, and MetaPipe toggles and extracts
   Pareto-optimal designs.
4. Code generation (:mod:`repro.codegen`) emits MaxJ for chosen designs.

Ground truth comes from two simulation substrates standing in for the
paper's proprietary toolchain and board: a synthesis/place-and-route
simulator (:mod:`repro.synth`) and a cycle-level runtime simulator
(:mod:`repro.sim`). The seven Table II benchmarks live in
:mod:`repro.apps`; CPU baselines in :mod:`repro.cpu`. See DESIGN.md for the
substitution rationale and EXPERIMENTS.md for paper-vs-measured results.
"""

import importlib

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """A package's module ``__getattr__`` and ``__dir__``: each name of
    ``exports`` (name -> defining submodule), and each submodule, is
    imported on first use, so a command pays only for what it runs."""
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str):
        if name in exports:
            module = importlib.import_module(f"{package}.{exports[name]}")
            namespace[name] = value = getattr(module, name)
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*namespace, *exports, *namespace.get("__all__", ())})

    return __getattr__, __dir__


_SUBPACKAGES = ["apps", "codegen", "cpu", "dse", "estimation", "hls", "ir",
                "patterns", "sim", "synth", "target"]
_EXPORTS = {
    "Design": "ir", "Estimator": "estimation",
    "FunctionalSim": "sim", "default_estimator": "estimation",
    "explore": "dse", "simulate": "sim", "synthesize": "synth",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(["__version__", *_SUBPACKAGES, *_EXPORTS])
