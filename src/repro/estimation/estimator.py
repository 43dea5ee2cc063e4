"""Estimator facade: one object answering "how big / how fast is this design".

Bundles the characterized template models, the trained correction models,
and the board description. Characterization and training happen once per
process (or can be loaded from a saved model file) and are shared across
all design estimates — exactly the paper's amortization argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..ir.graph import Design
from ..ir.node import IRError
from ..target.board import MAIA, Board
from .area import AreaEstimate, hybrid_area
from .cache import MISS, EstimationCaches, point_key
from .characterize import TemplateModels, characterize_templates
from .cycles import CycleEstimate, estimate_cycles
from .plan import price_points
from .train import CorrectionModels, train_corrections


@dataclass
class Estimate:
    """A complete design-point estimate: runtime and area."""

    design_name: str
    cycles: float
    seconds: float
    area: AreaEstimate
    board: Board

    @property
    def alms(self) -> int:
        return self.area.alms

    @property
    def dsps(self) -> int:
        return self.area.dsps

    @property
    def brams(self) -> int:
        return self.area.brams

    def fits(self) -> bool:
        """Whether the estimated design fits on the board's device."""
        return self.area.fits(self.board.device)

    def utilization(self) -> Dict[str, float]:
        """Estimated utilization fraction per device resource class."""
        return self.area.utilization(self.board.device)


class Estimator:
    """Fast design analysis: cycle counts plus hybrid area estimation.

    With ``cache=True`` (the default) the estimator owns an
    :class:`~repro.estimation.cache.EstimationCaches` bundle that
    memoizes template predictions, whole design points, and the compiled
    per-class plans behind :meth:`estimate_points`. Cached results are
    bit-identical to the cold path; pass ``cache=False`` (the
    ``--no-cache`` CLI flag) to build and estimate every design from
    scratch.

    ``models`` is what the area walk and the plan compiler predict
    template costs from: the bundle's memoizing view of ``templates``,
    or ``templates`` itself with ``cache=False``.
    """

    def __init__(
        self,
        board: Board = MAIA,
        templates: Optional[TemplateModels] = None,
        corrections: Optional[CorrectionModels] = None,
        training_samples: int = 200,
        seed: int = 7,
        cache: bool = True,
    ) -> None:
        self.board = board
        self.caches: Optional[EstimationCaches] = (
            EstimationCaches() if cache else None
        )
        if templates is None:
            with obs.timed(
                "estimator.characterize", "estimator.characterize_s",
                board=board.name,
            ):
                templates = characterize_templates(board.device)
        self.templates = templates
        self.models = (
            templates if self.caches is None
            else self.caches.wrap_templates(templates)
        )
        if corrections is None:
            with obs.timed(
                "estimator.train", "estimator.train_s",
                board=board.name, samples=training_samples,
            ):
                corrections = train_corrections(
                    self.templates, board,
                    n_samples=training_samples, seed=seed,
                )
        self.corrections = corrections

    def estimate_cycles(self, design: Design) -> CycleEstimate:
        """Runtime estimate only (paper Section IV-B1)."""
        return estimate_cycles(design, self.board)

    def estimate_area(self, design: Design) -> AreaEstimate:
        """Hybrid area estimate only (paper Section IV-B2)."""
        return hybrid_area(design, self.models, self.corrections, self.board)

    def estimate(self, design: Design) -> Estimate:
        """Complete design-point estimate: cycles plus area."""
        with obs.timed("estimate", "estimate.latency_s", design=design.name):
            obs.counter("estimate.calls").inc()
            cycles = self.estimate_cycles(design)
            area = self.estimate_area(design)
        return Estimate(
            design_name=design.name,
            cycles=cycles.total,
            seconds=cycles.seconds,
            area=area,
            board=self.board,
        )

    def estimate_points(
        self, benchmark, dataset, params_list: Sequence[Dict[str, object]]
    ) -> List[Optional[Estimate]]:
        """Estimates for parameter points of one benchmark, in order.

        ``None`` marks an IR-illegal point (its build raises
        :class:`~repro.ir.IRError`). With caching on, repeat points are
        served from the ``points`` cache and fresh ones are priced from
        per-class plans (:mod:`repro.estimation.plan`) without building
        their IR; every estimate is bit-identical to building the design
        and calling :meth:`estimate`. With ``cache=False`` each point is
        built and estimated that way.
        """
        if self.caches is None:
            return [
                self._estimate_built(benchmark, dataset, params)
                for params in params_list
            ]
        points = self.caches.points
        out: List[Optional[Estimate]] = []
        misses = []
        for params in params_list:
            key = point_key(benchmark.name, dataset, params)
            hit = points.get(key)
            if hit is MISS:
                misses.append((len(out), key, params))
            out.append(hit)  # type: ignore[arg-type]
        if misses:
            priced = price_points(
                self, benchmark, dataset, [params for _, _, params in misses]
            )
            for (index, key, _), estimate in zip(misses, priced):
                points.put(key, estimate)
                out[index] = estimate
        return out

    def _estimate_built(self, benchmark, dataset, params) -> Optional[Estimate]:
        """The per-point path: build the design, then :meth:`estimate` it."""
        try:
            design = benchmark.build(dataset, **params)
        except IRError:
            return None
        return self.estimate(design)


@functools.lru_cache(maxsize=4)
def _build_default_estimator(board: Board, seed: int) -> Estimator:
    """The cached constructor behind :func:`default_estimator`."""
    return Estimator(board, seed=seed)


def default_estimator(
    board: Board = MAIA, seed: int = 7, cache: bool = True
) -> Estimator:
    """Process-wide shared estimator (characterize + train once).

    Counts ``estimator.cache.{hit,miss}`` so the cold-start cost
    (characterization + NN training, visible as ``estimator.characterize``
    / ``estimator.train`` spans) can be separated from steady-state CLI
    latency — and so per-worker warm-up shows up in parallel-DSE benches.

    ``cache=False`` (the CLI ``--no-cache`` flag) returns an estimator
    sharing the same trained models but with estimation caching disabled
    — no recharacterization, just the cold per-point hot path.
    """
    misses_before = _build_default_estimator.cache_info().misses
    estimator = _build_default_estimator(board, seed)
    if _build_default_estimator.cache_info().misses > misses_before:
        obs.counter("estimator.cache.miss").inc()
    else:
        obs.counter("estimator.cache.hit").inc()
    if not cache:
        return Estimator(
            board,
            templates=estimator.templates,
            corrections=estimator.corrections,
            cache=False,
        )
    return estimator


# Cache management passthroughs: callers treat default_estimator as if it
# were the lru_cache-decorated function itself.
default_estimator.cache_info = _build_default_estimator.cache_info
default_estimator.cache_clear = _build_default_estimator.cache_clear
