"""Extension applications beyond the paper's Table II.

These exercise templates and patterns the seven evaluation benchmarks do
not: the priority queue (knn) and groupBy scatter-accumulation
(histogram). They use the same Benchmark interface and are held in a
separate registry so the paper's experiment set stays exactly Table II.
"""

from typing import Dict, List

from ..registry import Benchmark
from .histogram import Histogram
from .knn import KNN

_EXTRAS: Dict[str, Benchmark] = {
    "histogram": Histogram(),
    "knn": KNN(),
}


def get_extra(name: str) -> Benchmark:
    """Look up one extension benchmark by name."""
    return _EXTRAS[name]


def all_extras() -> List[Benchmark]:
    """All extension benchmarks, sorted by name."""
    return [_EXTRAS[name] for name in sorted(_EXTRAS)]


__all__ = ["Histogram", "KNN", "all_extras", "get_extra"]
