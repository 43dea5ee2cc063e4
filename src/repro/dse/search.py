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

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..apps.registry import Benchmark, Dataset
from ..estimation.estimator import DesignPoint, Estimate, Estimator
from ..estimation.plan import family_of
from ..params import BoolParam, ParamSpace
from ..runtime import require_positive

Point = Dict[str, object]

# Random starting points drawn per batch; batches repeat until the
# budget is spent, so this sets the draw order, not the number of starts.
STARTS_PER_BATCH = 6


@dataclass
class SearchResult:
    """Outcome of a guided search."""

    benchmark: str
    dataset: Dataset
    best: Optional[DesignPoint] = None
    evaluations: int = 0
    restarts: int = 0
    trajectory: List[float] = field(default_factory=list)


def _neighbors(
    space: ParamSpace, index: int, point: Point, rng: random.Random
) -> List[Tuple[int, Point]]:
    """``(index, point)`` of the legal points one parameter step from
    ``point``, the point at ``index``: a toggle flipped, or an integer
    moved to an adjacent candidate. The index changes by the step times
    the parameter's stride, so no neighbour is encoded again."""
    out: List[Tuple[int, Point]] = []
    sizes = [len(param.candidates) for param in space.params]
    stride = math.prod(sizes)
    for param, size in zip(space.params, sizes):
        stride //= size
        digit = index // stride % size
        steps = (1 - 2 * digit,) if isinstance(param, BoolParam) else (-1, 1)
        for step in steps:
            j = digit + step
            if 0 <= j < size:
                candidate = dict(point)
                candidate[param.name] = param.candidates[j]
                out.append((index + step * stride, candidate))
    rng.shuffle(out)
    return [(i, p) for i, p in out if space.is_legal(p)]


def local_search(
    benchmark: Benchmark,
    estimator: Estimator,
    dataset: Optional[Dataset] = None,
    budget: int = 300,
    seed: int = 1,
) -> SearchResult:
    """Randomized hill climbing on runtime over the legal space.

    A per-search ``seen`` map, keyed by each point's index in the space,
    preserves the walk's budget/trajectory semantics (each distinct point
    costs one evaluation per search). Unseen points go through
    :meth:`~repro.estimation.estimator.Estimator.estimate_points`, whose
    shared design-point cache skips points any earlier search or
    exploration already priced.

    The walk restarts from :data:`STARTS_PER_BATCH` fresh random points
    at a time until the budget is spent; ``SearchResult.restarts``
    counts the starts it climbed from. The call is one ``search`` span.

    Raises :class:`ValueError` unless ``budget`` is a positive integer.
    """
    require_positive("budget", budget)
    dataset = dataset or benchmark.default_dataset()
    if estimator.caches is None:
        space = benchmark.param_space(dataset)
    else:  # the space the estimator's plan family already holds
        space = family_of(estimator, benchmark, dataset).space
    rng = random.Random(seed)
    result = SearchResult(benchmark.name, dataset)
    seen: Dict[int, Optional[Estimate]] = {}

    def evaluate(index: int, point: Point) -> Optional[Estimate]:
        """The point's estimate if it fits the device, else None."""
        if index in seen:
            return seen[index]
        if result.evaluations >= budget:
            return None
        result.evaluations += 1
        (estimate,) = estimator.estimate_points(
            benchmark, dataset, [point], [index]
        )
        fits = estimate is not None and estimate.fits()
        fitting = seen[index] = estimate if fits else None
        if estimate is None:
            return None
        if fitting is not None and (
            result.best is None or fitting.cycles < result.best.cycles
        ):
            result.best = DesignPoint(dict(point), fitting)
        result.trajectory.append(
            result.best.cycles if result.best else float("inf")
        )
        return fitting

    with obs.span("search", bench=benchmark.name, budget=budget,
                  seed=seed) as span:
        # Keep restarting from fresh random points until the probe budget
        # is spent.
        while result.evaluations < budget:
            indices = space.sample_indices(rng, STARTS_PER_BATCH)
            if not len(indices):
                break
            evals_before = result.evaluations
            for current in zip(indices.tolist(), space.points(indices)):
                if result.evaluations >= budget:
                    break
                result.restarts += 1
                current_est = evaluate(*current)
                while result.evaluations < budget:
                    improved = False
                    for neighbor in _neighbors(space, *current, rng):
                        est = evaluate(*neighbor)
                        if est is not None and (
                            current_est is None
                            or est.cycles < current_est.cycles
                        ):
                            current, current_est = neighbor, est
                            improved = True
                            break
                    if not improved:
                        break
            if result.evaluations == evals_before:
                break  # everything reachable is cached; stop cleanly
        span.set(evaluations=result.evaluations, restarts=result.restarts)
    return result
