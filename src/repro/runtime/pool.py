"""Worker pool: run a shard plan serially or across forked processes.

The estimation work DSE distributes is embarrassingly parallel — after
the estimator is characterized and trained there is no shared mutable
state per point — so the pool's job is mostly plumbing. One function
runs a pending shard (open its checkpoint writer, price it block by
block, close the writer); :func:`run_plan` maps it over the pending
shard indices:

* ``workers=1``: builtin ``map``, in-process, with a ``dse.progress``
  instant each time the priced-point count crosses a multiple of
  :data:`PROGRESS_EVERY`;
* ``workers>1``: ``ProcessPoolExecutor.map`` on the ``fork`` start
  method, created *after* the estimator exists, so every worker inherits
  the trained models through copy-on-write memory and pays no cold
  start. The executor's queue hands the next shard to whichever worker
  frees up first; :meth:`RunOutcome.utilization` gives each worker's
  busy fraction.

Workers inherit the parent's :mod:`repro.obs` state and record exactly
as a serial run does: their spans stream to the parent's trace file
(tagged with the worker's pid) as they finish, and each
:class:`ShardOutcome` carries the events its shard recorded, which the
parent adds to its in-memory tracer without writing them again. Each
shard emits one ``dse.shard.done`` instant from the parent.
Point outcome counts are recorded once, after the merge, by the
explorer. Platforms without ``fork`` fall back to the serial path rather
than re-training one estimator per worker; the engine reports the
effective worker count.

Checkpointing is per shard: whichever process runs a shard is the only
writer of its JSONL file (:mod:`repro.runtime.checkpoint`), so there is
no cross-process file contention, and a resumed run only estimates
indices missing from the files. Each planned shard yields one outcome:
a complete shard is not dispatched, and a partial shard's restored
records join its fresh ones in the parent (:func:`joined_outcome`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Container, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..estimation.estimator import DesignPoint
from ..params import ParamSpace
from .checkpoint import BLOCK_POINTS, CheckpointStore, ShardState
from .checkpoint import estimate_from_row, estimate_row
from .sharding import Shard, ShardPlan, require_positive

# Emit a dse.progress instant each time the in-process priced-point count
# crosses a multiple of this.
PROGRESS_EVERY = 1_000


@dataclass
class ShardOutcome:
    """One shard's records, in global index order, plus bookkeeping.

    ``restored`` of the records came from the checkpoint; the rest were
    estimated. ``worker`` is the executing worker's pid in forked runs (0
    for the in-process path and for complete restored shards); per-worker
    busy time is aggregated from it. ``events`` holds the spans and
    instants a forked worker recorded for the shard.
    """

    shard: int
    records: List[DesignPoint] = field(default_factory=list)
    elapsed_s: float = 0.0
    restored: int = 0
    worker: int = 0
    events: Tuple[Sequence, Sequence] = ((), ())

    def __reduce__(self):
        # Records go home as flat rows, far cheaper to pickle than objects.
        rows = [(r.index, r.params,
                 None if r.estimate is None else estimate_row(r.estimate))
                for r in self.records]
        board = next((r.estimate.board for r in self.records
                      if r.estimate is not None), None)
        return _outcome_from_rows, ({**vars(self), "records": rows}, board)


def _outcome_from_rows(fields: Dict, board) -> ShardOutcome:
    """Rebuild, in the parent, the outcome a worker pickled as rows."""
    fields["records"] = [
        DesignPoint(params, None if row is None
                    else estimate_from_row(row, board), index)
        for index, params, row in fields["records"]
    ]
    return ShardOutcome(**fields)


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

    def utilization(self) -> List[float]:
        """Each forked worker's busy fraction of the wall time, by pid."""
        busy_s: Dict[int, float] = {}
        for o in self.outcomes:
            if o.worker:
                busy_s[o.worker] = busy_s.get(o.worker, 0.0) + o.elapsed_s
        return [round(min(busy_s[pid] / self.elapsed_s, 1.0), 4)
                for pid in sorted(busy_s)]


def joined_outcome(shard: Shard, restored: Dict[int, DesignPoint],
                   outcome: ShardOutcome) -> ShardOutcome:
    """Join ``restored`` records into ``shard``'s fresh ``outcome``, in
    index order; an index neither holds is left out, for the merge to
    refuse."""
    records = {**restored, **{r.index: r for r in outcome.records}}
    outcome.records = [records[i] for i in shard.indices if i in records]
    outcome.restored = len(restored)
    return outcome


def run_shard(
    benchmark,
    estimator,
    dataset,
    space: ParamSpace,
    shard: Shard,
    writer=None,
    skip: Container[int] = (),
    on_block: Optional[Callable[[int], None]] = None,
) -> ShardOutcome:
    """Estimate every point of ``shard`` not in ``skip``.

    Runs in the parent (serial path) or inside a forked worker (parallel
    path), and decodes the shard's point indices in ``space`` into the
    records' parameter dicts. ``on_block`` is called with each priced
    block's point count.

    A block of :data:`~repro.runtime.checkpoint.BLOCK_POINTS` points is
    the unit of work: one
    :meth:`~repro.estimation.estimator.Estimator.estimate_points` call
    prices it, and one ``writer.write`` call checkpoints and fsyncs its
    records.
    """
    outcome = ShardOutcome(shard=shard.index)
    start = time.perf_counter()
    todo = [i for i in shard.indices if i not in skip]
    codes = shard.points[[i - shard.start for i in todo]].tolist()
    params = space.points(codes)
    for lo in range(0, len(todo), BLOCK_POINTS):
        block = slice(lo, lo + BLOCK_POINTS)
        estimates = estimator.estimate_points(
            benchmark, dataset, params[block], codes[block]
        )
        records = [
            DesignPoint(point, estimate, index) for point, estimate, index
            in zip(params[block], estimates, todo[block])
        ]
        outcome.records += records
        if writer is not None:
            writer.write(records)
        if on_block is not None:
            on_block(len(records))
    if writer is not None:
        writer.done(shard)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


# -- the one shard runner ---------------------------------------------------

# State of the run_plan call in progress: set before its pending shards
# are mapped and cleared after. Forked workers inherit it at fork time.
_RUN: Optional[Dict] = None


def _run_pending(index: int) -> ShardOutcome:
    """Run pending shard ``index`` in this process, parent or forked child.

    Shard data, the estimator, the checkpoint store and the heartbeat
    come from the run state; only the shard index goes out, and rows come
    back (:meth:`ShardOutcome.__reduce__`). Inside a forked child, ``worker``
    is set to the pid and ``events`` to what its tracer recorded.
    """
    run = _RUN
    assert run is not None, "shard run without run state"
    forked = os.getpid() != run["parent"]
    if forked:
        obs.tracer().drain()  # the parent's events, inherited at fork
    shard = run["shards"][index]
    writer = run["store"].writer(shard) if run["store"] else None
    try:
        outcome = run_shard(
            run["benchmark"], run["estimator"], run["dataset"],
            run["space"], shard, writer=writer,
            skip=run["restored"].get(index, ()),
            on_block=None if forked else run["heartbeat"].progress,
        )
    finally:
        if writer is not None:
            writer.close()
    if forked:
        outcome.worker = os.getpid()
        outcome.events = obs.tracer().drain()
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

    def progress(self, points: int) -> None:
        """Count one priced block; emit progress if the running count
        crossed a multiple of :data:`PROGRESS_EVERY`."""
        before = self._done // PROGRESS_EVERY
        self._done += points
        if self._done // PROGRESS_EVERY == before:
            return
        elapsed = time.perf_counter() - self._start
        rate = self._done / elapsed if elapsed > 0 else 0.0
        obs.instant(
            "dse.progress",
            bench=self._bench,
            points=self._done,
            total=self._total,
            points_per_sec=round(rate, 1),
        )

    def shard(self, outcome: ShardOutcome) -> None:
        """Record a completed shard's heartbeat instant."""
        self._shards_done += 1
        estimated = len(outcome.records) - outcome.restored
        rate = (estimated / outcome.elapsed_s
                if outcome.elapsed_s > 0 else 0.0)
        obs.instant(
            "dse.shard.done",
            bench=self._bench,
            shard=outcome.shard,
            points=len(outcome.records),
            estimated=estimated,
            restored=outcome.restored,
            points_per_sec=round(rate, 1),
            completed_shards=self._shards_done,
            total_shards=self._total_shards,
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

    Returns one :class:`ShardOutcome` per planned shard: the complete
    shards' first, built from their restored records without dispatching
    them, then the pending shards' as they finish, their restored records
    joined in. Forked workers inherit the estimator, warm estimation caches
    included, through copy-on-write; each child's caches then grow
    privately.
    """
    global _RUN
    require_positive("workers", workers)

    states: Dict[int, ShardState] = {}
    if store is not None:
        states = store.begin(
            benchmark.name, dataset, plan, resume=resume,
            board=estimator.board,
        )
    if workers > 1 and not fork_available():  # pragma: no cover - platform
        workers = 1

    start = time.perf_counter()
    run = RunOutcome(workers=workers)
    heartbeat = _Heartbeat(plan.total_points, plan.n_shards, benchmark.name)
    shards = {shard.index: shard for shard in plan.shards}
    restored = {index: state.records
                for index, state in states.items() if state.records}
    complete = {index for index, state in states.items() if state.complete}
    pending = [index for index in shards if index not in complete]
    _RUN = {
        "benchmark": benchmark, "estimator": estimator, "dataset": dataset,
        "space": plan.space,
        "shards": shards, "store": store, "heartbeat": heartbeat,
        "parent": os.getpid(), "restored": restored,
    }
    try:
        with ExitStack() as stack:
            mapper = map
            if workers > 1 and pending:
                # Keep the children's collector off the inherited heap: a
                # full collection there would copy every page it touches.
                gc.freeze()
                stack.callback(gc.unfreeze)
                mapper = stack.enter_context(ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    mp_context=multiprocessing.get_context("fork"),
                )).map
            # A complete shard is not dispatched: its outcome is empty
            # until its restored records join it.
            for outcome in chain(map(ShardOutcome, sorted(complete)),
                                 mapper(_run_pending, pending)):
                obs.tracer().adopt(*outcome.events)
                if outcome.shard in restored:
                    outcome = joined_outcome(shards[outcome.shard],
                                             restored[outcome.shard], outcome)
                heartbeat.shard(outcome)
                run.outcomes.append(outcome)
    finally:
        _RUN = None
    run.elapsed_s = time.perf_counter() - start
    return run
