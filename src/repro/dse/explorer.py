"""Design space exploration (paper Section IV-C).

Randomly samples up to a budget of legal points from a benchmark's pruned
parameter space (divisor tile sizes and parallelization factors, buffer
capacity caps), estimates every point with the fast estimator, discards
designs that do not fit the device, and extracts the Pareto frontier along
execution cycles x ALM usage.

Execution is delegated to the :mod:`repro.runtime` engine: the seeded
sample is split into disjoint shards (:mod:`repro.runtime.sharding`) and
one shard runner is mapped over them, in-process or across forked
workers (:mod:`repro.runtime.pool`), optionally appending to per-shard
JSONL files for kill/resume (:mod:`repro.runtime.checkpoint`). For a fixed
seed the sampled point set — and therefore the Pareto front — is
identical for every ``shards``/``workers`` combination; the merge layer
(:mod:`repro.runtime.merge`) enforces that no point is dropped or
duplicated. :func:`explore` and :func:`merge_checkpoints` (which
estimates nothing and merges a checkpoint directory's restored records)
assemble their result through the same merge-and-verify step.

When observability is enabled (:mod:`repro.obs`), the run records the
per-point estimation-latency histogram (``dse.point_latency_s``) and
the outcome counters ``dse.points.{sampled,illegal,unfit,valid,restored}``
in one pass over the merged, conservation-checked records — the same
pass for serial, forked, resumed and merged runs — plus
``dse.progress`` instants carrying points/sec on the serial path
(checked once per priced block, emitted every 1,000 points) and
per-shard ``dse.shard.done`` heartbeats: the numbers behind the paper's
"75,000 points in seconds" DSE claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .. import obs
from ..apps.registry import Benchmark, Dataset
from ..estimation.estimator import DesignPoint, Estimator
from ..runtime import (
    CheckpointError,
    CheckpointStore,
    merge_outcomes,
    outcomes_from_states,
    plan_shards,
    read_manifest,
    require_positive,
    run_plan,
)
from .pareto import pareto_front

DEFAULT_MAX_POINTS = 75_000


@dataclass
class ExplorationResult:
    """Outcome of exploring one benchmark's design space.

    ``points`` holds the legal sampled points' records in sample order.
    """

    benchmark: str
    dataset: Dataset
    points: List[DesignPoint] = field(default_factory=list)
    space_cardinality: int = 0
    legal_sampled: int = 0
    elapsed_seconds: float = 0.0
    shards: int = 1
    workers: int = 1
    restored: int = 0
    total_shards: int = 0  # full partition size (== shards unless ranged)
    shard_range: Optional[Tuple[int, int]] = None

    @property
    def valid_points(self) -> List[DesignPoint]:
        return [p for p in self.points if p.valid]

    @property
    def pareto(self) -> List[DesignPoint]:
        """Pareto-optimal valid designs: minimize (cycles, ALMs)."""
        return pareto_front(
            self.valid_points, key=lambda p: (p.cycles, float(p.alms))
        )

    @property
    def best(self) -> Optional[DesignPoint]:
        """The fastest valid design."""
        valid = self.valid_points
        return min(valid, key=lambda p: p.cycles) if valid else None

    @property
    def seconds_per_point(self) -> float:
        if not self.points:
            return 0.0
        return self.elapsed_seconds / len(self.points)

    def pareto_sample(self, count: int) -> List[DesignPoint]:
        """Evenly spaced selection of ``count`` Pareto points (Table III
        evaluates five Pareto points per benchmark); one point is the
        fastest."""
        front = self.pareto
        if len(front) <= count:
            return front
        step = (len(front) - 1) / max(count - 1, 1)
        return [front[round(i * step)] for i in range(count)]


def explore(
    benchmark: Benchmark,
    estimator: Estimator,
    dataset: Optional[Dataset] = None,
    max_points: int = DEFAULT_MAX_POINTS,
    seed: int = 1,
    shards: Optional[int] = None,
    workers: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_range: Optional[Tuple[int, int]] = None,
) -> ExplorationResult:
    """Explore ``benchmark``'s design space with ``estimator``.

    ``shards`` defaults to ``workers`` (one shard per worker); any
    explicit value yields the same points and Pareto front, only
    different heartbeat/checkpoint granularity. ``workers > 1`` forks a
    process pool after the estimator is trained and maps the shards
    over it. ``checkpoint_dir`` writes per-shard JSONL
    checkpoints there; ``resume=True`` restores completed work from that
    directory instead of re-estimating it.

    ``shard_range=(lo, hi)`` sweeps only shards ``lo..hi-1`` of the full
    partition — the multi-host knob: disjoint ranges on different hosts,
    checkpointing into one directory, tile the serial point set exactly
    and are reunited by :func:`merge_checkpoints`. A ranged result's
    points/Pareto cover just that range; conservation is enforced over
    the range.

    Each shard prices its points in blocks through
    :meth:`~repro.estimation.estimator.Estimator.estimate_points`: with
    caching on (the default) that means compiled per-class plans plus
    the shared design-point cache, with results bit-identical to
    building and estimating every design (``--no-cache``).
    """
    require_positive("workers", workers)
    if shards is None:
        shards = workers
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if shard_range is not None and checkpoint_dir is None:
        raise ValueError(
            "shard_range requires checkpoint_dir — a ranged sweep is only "
            "useful if its shards land somewhere a merge can find them"
        )

    dataset = dataset or benchmark.default_dataset()
    space = benchmark.param_space(dataset)

    with obs.span(
        "explore", bench=benchmark.name, budget=max_points, seed=seed,
        shards=shards, workers=workers,
    ) as sp:
        plan = plan_shards(
            space, seed, max_points, shards, shard_range=shard_range,
        )

        store = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None else None
        )
        run = run_plan(
            benchmark, estimator, dataset, plan,
            workers=workers, store=store, resume=resume,
        )
        result = _merged_result(
            benchmark, dataset, plan, run.outcomes,
            elapsed_seconds=run.elapsed_s, workers=run.workers,
        )
        sp.set(
            points=len(result.points),
            valid=sum(1 for p in result.points if p.valid),
            restored=result.restored,
            elapsed_s=round(result.elapsed_seconds, 6),
        )
    return result


def _merged_result(
    benchmark: Benchmark, dataset: Dataset, plan, outcomes, **extra
) -> ExplorationResult:
    """Merge shard outcomes, prove conservation, record metrics, wrap up.

    The one result assembly behind :func:`explore` and
    :func:`merge_checkpoints`; ``extra`` fills the run-only fields.
    """
    records, conservation = merge_outcomes(plan, outcomes)
    conservation.verify()
    _record_outcomes(records, conservation)
    return ExplorationResult(
        benchmark=benchmark.name,
        dataset=dataset,
        points=[record for record in records if not record.illegal],
        space_cardinality=plan.space_cardinality,
        legal_sampled=plan.total_points,
        shards=plan.n_shards,
        restored=conservation.restored,
        total_shards=plan.planned_shards,
        shard_range=plan.shard_range,
        **extra,
    )


def _record_outcomes(records, conservation) -> None:
    """Point counters and latencies from a verified merge, in one pass."""
    obs.counter("dse.points.sampled").inc(conservation.planned)
    obs.counter("dse.points.illegal").inc(conservation.illegal)
    obs.counter("dse.points.valid").inc(conservation.valid)
    obs.counter("dse.points.unfit").inc(conservation.unfit)
    obs.counter("dse.points.restored").inc(conservation.restored)
    if obs.metrics_enabled():
        latency = obs.histogram("dse.point_latency_s")
        for record in records:
            if not (record.restored or record.illegal):
                latency.observe(record.latency_s)


def merge_checkpoints(
    directory: Union[str, Path],
    estimator: Estimator,
) -> ExplorationResult:
    """Merge a (possibly multi-host) checkpoint directory, estimating nothing.

    Reads the run manifest, re-plans the full shard partition from it,
    loads every shard file — however many hosts' ``--shard-range`` runs
    produced them — and reassembles the global point list under the
    Conservation ledger. The result is bit-identical to the serial sweep
    the manifest describes; a missing range or a duplicated shard is a
    :class:`~repro.runtime.ConservationError`, never a silently smaller
    front.
    """
    from ..apps import get_benchmark

    directory = Path(directory)
    manifest = read_manifest(directory)
    try:
        benchmark = get_benchmark(manifest["benchmark"])
    except KeyError:
        raise CheckpointError(
            f"checkpoint in {directory} names unknown benchmark "
            f"{manifest['benchmark']!r}"
        ) from None
    dataset = dict(manifest["dataset"])
    with obs.span(
        "merge_checkpoints", bench=benchmark.name, dir=str(directory),
    ) as sp:
        try:
            plan = plan_shards(
                benchmark.param_space(dataset), manifest["seed"],
                manifest["max_points"], manifest["shards"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint manifest in {directory} does not describe a "
                f"{benchmark.name} sweep: {exc!r}"
            ) from None
        states = CheckpointStore(directory).load(
            benchmark.name, dataset, plan, estimator.board
        )
        result = _merged_result(
            benchmark, dataset, plan, outcomes_from_states(plan, states)
        )
        sp.set(points=len(result.points))
    return result
