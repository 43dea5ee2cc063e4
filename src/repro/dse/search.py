"""Guided design space search — an extension beyond the paper's random walk.

The paper samples up to 75,000 random legal points. Because the estimator
makes each probe nearly free, a guided walk can do better per probe: this
module adds randomized hill climbing with restarts over the same pruned
space. The neighborhood of a point changes one parameter to an adjacent
candidate value (tile sizes and factors are ordered), which matches the
smooth structure of the runtime/area surfaces the estimator exposes.

The search optimizes runtime subject to fitting the device; the ablation
bench compares its sample efficiency against pure random sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.registry import Benchmark, Dataset
from ..estimation.estimator import DesignPoint, Estimate, Estimator
from ..params import BoolParam, IntParam, ParamSpace
from ..runtime import require_positive

Point = Dict[str, object]


@dataclass
class SearchResult:
    """Outcome of a guided search."""

    benchmark: str
    dataset: Dataset
    best: Optional[DesignPoint] = None
    evaluations: int = 0
    restarts: int = 0
    trajectory: List[float] = field(default_factory=list)


def _neighbors(space: ParamSpace, point: Point, rng: random.Random) -> List[Point]:
    """Points differing from ``point`` in exactly one parameter step."""
    out: List[Point] = []
    for param in space.params:
        current = point[param.name]
        if isinstance(param, BoolParam):
            candidate = dict(point)
            candidate[param.name] = not current
            out.append(candidate)
            continue
        assert isinstance(param, IntParam)
        values = list(param.candidates)
        try:
            idx = values.index(current)
        except ValueError:  # pragma: no cover - points come from the space
            continue
        for step in (-1, 1):
            j = idx + step
            if 0 <= j < len(values):
                candidate = dict(point)
                candidate[param.name] = values[j]
                out.append(candidate)
    rng.shuffle(out)
    return [p for p in out if space.is_legal(p)]


def local_search(
    benchmark: Benchmark,
    estimator: Estimator,
    dataset: Optional[Dataset] = None,
    budget: int = 300,
    restarts: int = 6,
    seed: int = 1,
) -> SearchResult:
    """Randomized hill climbing on runtime over the legal space.

    A per-search ``seen`` map, keyed by each point's index in the space,
    preserves the walk's budget/trajectory semantics (each distinct point
    costs one evaluation per search). Unseen points go through
    :meth:`~repro.estimation.estimator.Estimator.estimate_points`, whose
    shared design-point cache skips points any earlier search or
    exploration already priced.

    Raises :class:`ValueError` unless ``budget`` and ``restarts`` are
    positive integers.
    """
    require_positive("budget", budget)
    require_positive("restarts", restarts)
    dataset = dataset or benchmark.default_dataset()
    space = benchmark.param_space(dataset)
    rng = random.Random(seed)
    result = SearchResult(benchmark.name, dataset)
    seen: Dict[int, Optional[Estimate]] = {}

    def evaluate(point: Point) -> Optional[Estimate]:
        index = space.encode(point)
        if index in seen:
            return seen[index]
        if result.evaluations >= budget:
            return None
        result.evaluations += 1
        (estimate,) = estimator.estimate_points(
            benchmark, dataset, [point], [index]
        )
        seen[index] = estimate
        if estimate is None:
            return None
        if estimate.fits():
            if result.best is None or estimate.cycles < result.best.cycles:
                result.best = DesignPoint(dict(point), estimate)
        result.trajectory.append(
            result.best.cycles if result.best else float("inf")
        )
        return estimate

    # Keep restarting from fresh random points until the probe budget is
    # spent; `restarts` only sets how many starts are drawn per batch.
    while result.evaluations < budget:
        starts = space.sample(rng, restarts)
        if not starts:
            break
        evals_before = result.evaluations
        for start in starts:
            if result.evaluations >= budget:
                break
            result.restarts += 1
            current = start
            current_est = evaluate(current)
            while result.evaluations < budget:
                improved = False
                for neighbor in _neighbors(space, current, rng):
                    est = evaluate(neighbor)
                    if est is None:
                        continue
                    if est.fits() and (
                        current_est is None
                        or not current_est.fits()
                        or est.cycles < current_est.cycles
                    ):
                        current, current_est = neighbor, est
                        improved = True
                        break
                if not improved:
                    break
        if result.evaluations == evals_before:
            break  # everything reachable is cached; stop cleanly
    return result
