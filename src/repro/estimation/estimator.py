"""Estimator facade: one object answering "how big / how fast is this design".

Bundles the characterized template models, the trained correction models,
and the board description. Characterization and training happen once per
device: the default ``MAIA`` models ship with the package and are loaded
instead of retrained, and any estimator's models are shared across all of
its design estimates — exactly the paper's amortization argument.
"""

from __future__ import annotations

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
from .plan import family_of, price_points
from .train import DEFAULT_SAMPLES, CorrectionModels, train_corrections


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


@dataclass
class DesignPoint:
    """One explored design point: parameters, estimate, sweep bookkeeping.

    The one record of a point from pricing to result: a shard creates
    it, the checkpoint writer writes it, a resume restores it, the merge
    orders it and :attr:`repro.dse.ExplorationResult.points` holds it.
    ``estimate`` is ``None`` for points whose build raised an
    :class:`~repro.ir.node.IRError` (structurally illegal points the
    space's legality predicates cannot express). ``index`` is the point's
    global position in the seeded sample.
    """

    params: Dict[str, object]
    estimate: Optional[Estimate]
    index: int = 0

    @property
    def illegal(self) -> bool:
        """True when the point's design build failed a structural rule."""
        return self.estimate is None

    @property
    def cycles(self) -> float:
        return self.estimate.cycles

    @property
    def alms(self) -> int:
        return self.estimate.alms

    @property
    def valid(self) -> bool:
        """Fits on the target device (invalid points shown red in Fig. 5)."""
        return self.estimate.fits()


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

    Without injected models, ``MAIA`` at seed 7 and ``DEFAULT_SAMPLES``
    loads the shipped ``models/maia.json`` (what it would train); any
    other board, seed or sample count characterizes and trains.
    """

    def __init__(
        self,
        board: Board = MAIA,
        templates: Optional[TemplateModels] = None,
        corrections: Optional[CorrectionModels] = None,
        training_samples: int = DEFAULT_SAMPLES,
        seed: int = 7,
        cache: bool = True,
    ) -> None:
        self.board = board
        self.caches: Optional[EstimationCaches] = (
            EstimationCaches() if cache else None
        )
        if (templates is None and corrections is None and board == MAIA
                and seed == 7 and training_samples == DEFAULT_SAMPLES):
            # local import: store imports this module
            from .store import load_models, shipped_models_path

            templates, corrections = load_models(
                shipped_models_path(), board.device
            )
        if templates is None:
            with obs.span("estimator.characterize", board=board.name):
                templates = characterize_templates(board.device)
        self.templates = templates
        self.models = (
            templates if self.caches is None
            else self.caches.wrap_templates(templates)
        )
        if corrections is None:
            with obs.span(
                "estimator.train", board=board.name,
                samples=training_samples,
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
        with obs.span("estimate", design=design.name):
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
        self,
        benchmark,
        dataset,
        params_list: Sequence[Dict[str, object]],
        indices: Optional[Sequence[int]] = None,
    ) -> List[Optional[Estimate]]:
        """Estimates for parameter points of one benchmark, in order.

        ``None`` marks an IR-illegal point (its build raises
        :class:`~repro.ir.IRError`). ``indices`` are the points' indices
        in the benchmark's space, when the caller holds them; otherwise
        each dict is encoded. With caching on, repeat points are served
        from the ``points`` cache (keyed by index; a dict outside the
        space is never cached) and fresh ones are priced from per-class
        plans (:mod:`repro.estimation.plan`) without building their IR;
        every estimate is bit-identical to building the design and
        calling :meth:`estimate`. With ``cache=False`` each point is
        built and estimated that way.
        """
        if self.caches is None:
            return [
                self._estimate_built(benchmark, dataset, params)
                for params in params_list
            ]
        family = family_of(self, benchmark, dataset)
        if indices is None:
            indices = [family.index(params) for params in params_list]
        name, data, _ = point_key(benchmark.name, dataset, None)
        points = self.caches.points
        out: List[Optional[Estimate]] = []
        misses = []
        for params, index in zip(params_list, indices):
            key = (name, data, index)  # point_key's layout
            hit = MISS if index is None else points.get(key)
            if hit is MISS:
                misses.append((len(out), key, params))
            out.append(hit)  # type: ignore[arg-type]
        if misses:
            priced = price_points(
                self, benchmark, dataset, [params for _, _, params in misses],
                [family.class_key(params, key[2])
                 for _, key, params in misses],
            )
            for (i, key, _), estimate in zip(misses, priced):
                if key[2] is not None:
                    points.put(key, estimate)
                out[i] = estimate
        return out

    def _estimate_built(self, benchmark, dataset, params) -> Optional[Estimate]:
        """The per-point path: build the design, then :meth:`estimate` it."""
        try:
            design = benchmark.build(dataset, **params)
        except IRError:
            return None
        return self.estimate(design)


def default_estimator(
    board: Board = MAIA, seed: int = 7, cache: bool = True
) -> Estimator:
    """The estimator for ``board``: shipped models on ``MAIA`` at seed 7.

    ``cache=False`` (the CLI ``--no-cache`` flag) disables estimation
    caching: every point is built and estimated on the cold path.
    """
    return Estimator(board, seed=seed, cache=cache)
