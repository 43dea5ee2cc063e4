"""Worker pool: run a shard plan serially or across forked processes.

The estimation work DSE distributes is embarrassingly parallel — after
the estimator is characterized and trained there is no shared mutable
state per point — so the pool's job is mostly plumbing:

* ``workers=1`` runs every shard in-process, with a ``dse.progress``
  instant every :data:`PROGRESS_EVERY` priced points;
* ``workers>1`` maps the pending shards over a ``ProcessPoolExecutor``
  on the ``fork`` start method, created *after* the estimator exists, so
  every worker inherits the characterized/trained models through
  copy-on-write memory and pays no per-worker cold start. The
  executor's queue hands the next shard to whichever worker frees up
  first; each completed shard emits a ``dse.shard.done`` heartbeat
  instant and per-worker busy fractions land in
  ``dse.worker.*.utilization`` gauges.

Point outcome counters and the latency histogram are recorded once,
after the merge, by the explorer — the same pass for every path.

Platforms without ``fork`` (Windows, macOS spawn default) fall back to
the serial path rather than re-training one estimator per worker; the
engine reports the effective worker count so callers can see that.

Checkpointing is per shard: whichever process runs a shard is the only
writer of its JSONL file (:mod:`repro.runtime.checkpoint`), so there is
no cross-process file contention, and a resumed run only estimates
indices missing from the files. Restored records form outcomes of
their own (:func:`outcomes_from_states`), ahead of the fresh ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from .. import obs
from ..estimation.estimator import DesignPoint
from .checkpoint import BLOCK_POINTS, CheckpointStore, ShardState
from .sharding import Shard, ShardPlan, require_positive

# Emit a dse.progress instant every this many points priced in-process.
PROGRESS_EVERY = 1_000


@dataclass
class ShardOutcome:
    """One shard's fresh or restored records plus bookkeeping.

    ``worker`` is the executing worker's pid in forked runs (0 for the
    in-process path and for restored records); the pool aggregates
    per-worker busy time from it. One shard may have two outcomes: its
    restored records and its freshly estimated ones.
    """

    shard: int
    planned: int
    records: List[DesignPoint] = field(default_factory=list)
    elapsed_s: float = 0.0
    estimated: int = 0
    restored: int = 0
    worker: int = 0


@dataclass
class RunOutcome:
    """Everything the engine produced for one plan."""

    outcomes: List[ShardOutcome] = field(default_factory=list)
    workers: int = 1
    elapsed_s: float = 0.0

    @property
    def steals(self) -> int:
        """Forked shards queued past the first fill (perfbench reads it)."""
        return max(sum(1 for o in self.outcomes if o.worker) - self.workers, 0)


def outcomes_from_states(
    plan: ShardPlan, states: Dict[int, ShardState]
) -> List[ShardOutcome]:
    """One outcome per shard with checkpoint-restored records.

    Also the whole input of ``merge-checkpoints``, where the merge's
    conservation check proves the shard files hold exactly the planned
    points: a missing or duplicated index is a hard error.
    """
    outcomes: List[ShardOutcome] = []
    for shard in plan.shards:
        restored = states.get(shard.index, ShardState()).records
        if restored:
            outcomes.append(ShardOutcome(
                shard=shard.index, planned=len(shard),
                records=list(restored.values()), restored=len(restored),
            ))
    return outcomes


def run_shard(
    benchmark,
    estimator,
    dataset,
    shard: Shard,
    writer=None,
    skip: Optional[Set[int]] = None,
    on_point: Optional[Callable[[DesignPoint], None]] = None,
) -> ShardOutcome:
    """Estimate every point of ``shard`` not in ``skip``.

    Runs in the parent (serial path) or inside a forked worker (parallel
    path). ``on_point`` is the serial path's per-point observability hook.

    A block of :data:`~repro.runtime.checkpoint.BLOCK_POINTS` points is
    the unit of work: one
    :meth:`~repro.estimation.estimator.Estimator.estimate_points` call
    prices it, and one ``writer.write`` call checkpoints and fsyncs its
    records. Each record's latency is an even share of its block's time.
    """
    skip = skip or set()
    outcome = ShardOutcome(shard=shard.index, planned=len(shard))
    start = time.perf_counter()
    todo = [
        (shard.start + offset, params)
        for offset, params in enumerate(shard.points)
        if shard.start + offset not in skip
    ]
    for lo in range(0, len(todo), BLOCK_POINTS):
        block = todo[lo:lo + BLOCK_POINTS]
        t0 = time.perf_counter()
        estimates = estimator.estimate_points(
            benchmark, dataset, [params for _, params in block]
        )
        share = (time.perf_counter() - t0) / len(block)
        records = [
            DesignPoint(params, estimate, index, share)
            for (index, params), estimate in zip(block, estimates)
        ]
        outcome.records += records
        if writer is not None:
            writer.write(records)
        if on_point is not None:
            for record in records:
                on_point(record)
    outcome.estimated = len(todo)
    if writer is not None:
        writer.done(shard)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


# -- forked-worker plumbing -------------------------------------------------

# Snapshot inherited by workers at fork time. Set immediately before the
# executor is created and cleared once it has shut down; only worker
# processes read it.
_FORK_STATE: Optional[Dict[str, object]] = None


def _worker_init() -> None:
    """Forked-worker initializer: silence the inherited obs collectors.

    Workers measure per-point latency with raw ``perf_counter`` calls and
    ship it back in their records; recording spans/metrics into the
    child's copy of the global collectors would be invisible waste.
    """
    obs.disable()


def _worker_run_shard(index: int) -> ShardOutcome:
    """Run shard ``index`` inside a forked worker.

    Shard data, the estimator and the checkpoint store come from the
    fork snapshot; only the shard index crosses the process boundary.
    """
    state = _FORK_STATE
    assert state is not None, "worker started without fork state"
    shard: Shard = state["shards"][index]  # type: ignore[index]
    store: Optional[CheckpointStore] = state["store"]  # type: ignore[assignment]
    skip: Set[int] = state["skip"].get(index, set())  # type: ignore[union-attr]
    writer = store.writer(shard, append=bool(skip)) if store else None
    try:
        outcome = run_shard(
            state["benchmark"], state["estimator"], state["dataset"],
            shard, writer=writer, skip=skip,
        )
    finally:
        if writer is not None:
            writer.close()
    outcome.worker = os.getpid()
    return outcome


def fork_available() -> bool:
    """Whether this platform can fork workers that inherit the estimator."""
    return "fork" in multiprocessing.get_all_start_methods()


class _Heartbeat:
    """Progress instants and per-shard heartbeats into :mod:`repro.obs`."""

    def __init__(self, total_points: int, total_shards: int,
                 bench: str) -> None:
        self._total = total_points
        self._total_shards = total_shards
        self._bench = bench
        self._done = 0
        self._shards_done = 0
        self._start = time.perf_counter()

    def progress(self, _record: DesignPoint) -> None:
        """Serial path: count one priced point, maybe emit an instant."""
        self._done += 1
        if self._done % PROGRESS_EVERY == 0:
            self._instant()

    def shard(self, outcome: ShardOutcome) -> None:
        """Record a completed shard's heartbeat instant."""
        self._shards_done += 1
        obs.gauge("dse.shards.completed").set(self._shards_done)
        rate = (outcome.estimated / outcome.elapsed_s
                if outcome.elapsed_s > 0 else 0.0)
        obs.instant(
            "dse.shard.done",
            bench=self._bench,
            shard=outcome.shard,
            points=outcome.planned,
            estimated=outcome.estimated,
            restored=outcome.restored,
            points_per_sec=round(rate, 1),
            completed_shards=self._shards_done,
            total_shards=self._total_shards,
        )

    def _instant(self) -> None:
        elapsed = time.perf_counter() - self._start
        rate = self._done / elapsed if elapsed > 0 else 0.0
        obs.gauge("dse.points_per_sec").set(rate)
        obs.instant(
            "dse.progress",
            bench=self._bench,
            points=self._done,
            total=self._total,
            points_per_sec=round(rate, 1),
        )


def run_plan(
    benchmark,
    estimator,
    dataset,
    plan: ShardPlan,
    workers: int = 1,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
) -> RunOutcome:
    """Execute ``plan``: estimate every point not restored from ``store``.

    Returns the restored outcomes (:func:`outcomes_from_states`) followed
    by one fresh :class:`ShardOutcome` per shard that was not already
    complete — the merge layer's input, which sorts records globally.
    """
    require_positive("workers", workers)

    states: Dict[int, ShardState] = {}
    if store is not None:
        states = store.begin(
            benchmark.name, dataset, plan, resume=resume,
            board=estimator.board,
        )
    skip: Dict[int, Set[int]] = {
        index: set(state.records) for index, state in states.items()
        if state.records
    }

    heartbeat = _Heartbeat(plan.total_points, plan.n_shards, benchmark.name)
    effective_workers = workers
    if workers > 1 and not fork_available():  # pragma: no cover - platform
        effective_workers = 1

    start = time.perf_counter()
    run = RunOutcome(
        outcomes=outcomes_from_states(plan, states),
        workers=effective_workers,
    )
    pending = [
        shard for shard in plan.shards
        if not states.get(shard.index, ShardState()).complete
    ]
    if effective_workers == 1:
        run.outcomes.extend(
            _run_shard_inline(
                benchmark, estimator, dataset, shard, store,
                skip.get(shard.index, set()), heartbeat,
            )
            for shard in pending
        )
    elif pending:
        run.outcomes.extend(_run_shards_forked(
            benchmark, estimator, dataset, plan, pending, store, skip,
            effective_workers, heartbeat,
        ))
    run.elapsed_s = time.perf_counter() - start
    return run


def _run_shard_inline(
    benchmark, estimator, dataset, shard, store, skip, heartbeat,
) -> ShardOutcome:
    """Serial path: run one shard in-process with live progress."""
    writer = store.writer(shard, append=bool(skip)) if store else None
    try:
        outcome = run_shard(
            benchmark, estimator, dataset, shard,
            writer=writer, skip=skip, on_point=heartbeat.progress,
        )
    finally:
        if writer is not None:
            writer.close()
    heartbeat.shard(outcome)
    return outcome


def _run_shards_forked(
    benchmark, estimator, dataset, plan, pending, store, skip,
    workers, heartbeat,
) -> List[ShardOutcome]:
    """Parallel path: map the pending shards over workers forked now.

    Workers inherit the estimator — including any warm estimation caches
    — through fork copy-on-write; each child's cache then grows
    privately for the duration of its shards.
    """
    global _FORK_STATE
    _FORK_STATE = {
        "benchmark": benchmark,
        "estimator": estimator,
        "dataset": dataset,
        "shards": {shard.index: shard for shard in plan.shards},
        "store": store,
        "skip": skip,
    }
    outcomes: List[ShardOutcome] = []
    busy_s: Dict[int, float] = {}
    start = time.perf_counter()
    # Keep the children's collector off the inherited heap: a full
    # collection there would copy every page it touches.
    gc.freeze()
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
        ) as pool:
            for outcome in pool.map(
                _worker_run_shard, [shard.index for shard in pending]
            ):
                busy_s[outcome.worker] = (
                    busy_s.get(outcome.worker, 0.0) + outcome.elapsed_s
                )
                heartbeat.shard(outcome)
                outcomes.append(outcome)
    finally:
        gc.unfreeze()
        _FORK_STATE = None
    _report_utilization(busy_s, time.perf_counter() - start)
    return outcomes


def _report_utilization(busy_s: Dict[int, float], wall_s: float) -> None:
    """Per-worker busy fraction over the parallel section's wall time."""
    if wall_s <= 0 or not busy_s:
        return
    obs.gauge("dse.workers.active").set(len(busy_s))
    for slot, pid in enumerate(sorted(busy_s)):
        obs.gauge(f"dse.worker.{slot}.utilization").set(
            round(min(busy_s[pid] / wall_s, 1.0), 4)
        )
