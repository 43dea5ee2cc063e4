"""Straggler-skew harness shared by the Table IV bench and the perf gate.

Two measurement helpers, both committed to ``BENCH_table4.json`` as
host-independent *ratios* (never absolute points/sec, so 1-core CI
runners and 32-core workstations gate the same way):

* :func:`measure_work_stealing` — wraps the estimator so a contiguous
  early slice of the seeded sample is artificially slow (``time.sleep``
  while pricing those points, so the skew overlaps across forked
  workers even on a single core), then times a static ``shards == workers`` split
  against the adaptive ``shards="auto"`` micro-shard + work-stealing +
  tail-split schedule.  Static assignment hands one worker every
  straggler; the streaming scheduler spreads them, and the wall-clock
  ratio is the PR's headline number.
* :func:`measure_parallel_dse` — sharded-explore wall time per worker
  count, each run on a fresh empty-cache estimator (same trained
  models) so the ratio reflects the engine, not cache warmth.

Both assert the swept point set is bit-identical across configurations
before reporting any timing.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Tuple

from repro.apps import get_benchmark
from repro.dse import explore
from repro.estimation import Estimator

# Work-stealing skew defaults: 48 points, the first quarter of the
# sample sleeping 50 ms each.  Sleeps dominate estimation (<1 ms/point)
# and overlap across forked processes, so the adaptive-vs-fixed ratio is
# meaningful even on a 1-core host.
WS_BENCH = "tpchq6"
WS_POINTS = 48
WS_SEED = 5
WS_WORKERS = 2
WS_SLOW_FRACTION = 0.25
WS_SLOW_S = 0.05

# Parallel-DSE scaling defaults (mirrors the Table IV section).
PAR_BENCH = "dotproduct"
PAR_POINTS = 600
PAR_SEED = 13
PAR_SHARDS = 8


def _fresh_estimator(estimator: Estimator) -> Estimator:
    """Same trained models, empty estimation caches."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections,
    )


def _fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


class SkewedEstimator(Estimator):
    """Estimator whose prices cost extra time in one region of a sample.

    The first ``slow_fraction`` of ``bench``'s seeded sample order
    sleeps ``slow_s`` per point inside :meth:`estimate_points` — a
    contiguous expensive region at the head of the sample, the worst
    case for a static ``shards == workers`` split (the first shard
    inherits every straggler) and the target case for micro-shards +
    work stealing. Estimates are untouched, so skewed sweeps remain
    bit-identical to unskewed ones.
    """

    def __init__(self, estimator: Estimator, bench, seed: int,
                 max_points: int, slow_fraction: float = WS_SLOW_FRACTION,
                 slow_s: float = WS_SLOW_S) -> None:
        super().__init__(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections,
        )
        self.slow_s = slow_s
        sample = bench.param_space(bench.default_dataset()).sample(
            random.Random(seed), max_points
        )
        n_slow = max(1, int(len(sample) * slow_fraction))
        self.slow_keys = {self._key(p) for p in sample[:n_slow]}

    @staticmethod
    def _key(params: Dict[str, object]) -> Tuple:
        return tuple(sorted(params.items()))

    def estimate_points(self, benchmark, dataset, params_list):
        for params in params_list:
            if self._key(params) in self.slow_keys:
                time.sleep(self.slow_s)
        return super().estimate_points(benchmark, dataset, params_list)


def measure_work_stealing(
    estimator: Estimator,
    bench_name: str = WS_BENCH,
    points: int = WS_POINTS,
    seed: int = WS_SEED,
    workers: int = WS_WORKERS,
    slow_fraction: float = WS_SLOW_FRACTION,
    slow_s: float = WS_SLOW_S,
) -> Dict[str, object]:
    """Fixed vs adaptive wall clock on a straggler-skewed sweep.

    ``fixed`` is the static schedule (``shards == workers``, no tail
    split); ``adaptive`` is ``shards="auto"`` micro-shards with work
    stealing and in-flight tail re-split.  Returns both timings, the
    adaptive run's steal/requeue counts, and ``speedup`` =
    fixed / adaptive.  Point sets are asserted identical first.
    """
    bench = get_benchmark(bench_name)

    def run(shards, tail_split: bool):
        skewed = SkewedEstimator(
            estimator, bench, seed, points, slow_fraction, slow_s
        )
        start = time.perf_counter()
        result = explore(
            bench, skewed, max_points=points, seed=seed,
            shards=shards, workers=workers, tail_split=tail_split,
        )
        return time.perf_counter() - start, result, skewed

    fixed_s, fixed, skewed = run(workers, False)
    adaptive_s, adaptive, _ = run("auto", True)
    assert _fingerprint(fixed) == _fingerprint(adaptive), (
        "work-stealing sweep diverged from the static schedule"
    )
    return {
        "benchmark": bench_name,
        "points": points,
        "seed": seed,
        "workers": workers,
        "slow_points": len(skewed.slow_keys),
        "slow_s": slow_s,
        "fixed": {"shards": fixed.shards, "elapsed_s": fixed_s},
        "adaptive": {
            "shards": adaptive.shards,
            "elapsed_s": adaptive_s,
            "steals": adaptive.steals,
            "requeued": adaptive.requeued,
        },
        "speedup": fixed_s / adaptive_s,
        "note": (
            "straggler-skewed sweep (first quarter of the sample sleeps "
            "while priced); static shards==workers vs auto micro-shards with "
            "work stealing + tail split; ratio is host-independent"
        ),
    }


def measure_parallel_dse(
    estimator: Estimator,
    bench_name: str = PAR_BENCH,
    points: int = PAR_POINTS,
    workers_list=(1, 2, 4),
    shards: int = PAR_SHARDS,
) -> Dict[str, Dict[str, float]]:
    """Sharded-explore wall time per worker count, cold caches each run.

    Every run gets a fresh estimator sharing the trained models, so
    ``speedup_vs_serial`` compares engine schedules rather than cache
    warmth; each run is asserted to enumerate exactly the serial point
    set.
    """
    bench = get_benchmark(bench_name)
    rows: Dict[str, Dict[str, float]] = {}
    reference = None
    serial_elapsed = None
    for workers in workers_list:
        fresh = _fresh_estimator(estimator)
        start = time.perf_counter()
        result = explore(
            bench, fresh, max_points=points, seed=PAR_SEED,
            shards=shards, workers=workers,
        )
        elapsed = time.perf_counter() - start
        fingerprint = _fingerprint(result)
        if reference is None:
            reference = fingerprint
            serial_elapsed = elapsed
        assert fingerprint == reference, (
            f"workers={workers} diverged from the serial sweep"
        )
        rows[str(workers)] = {
            "elapsed_s": elapsed,
            "points_per_sec": len(result.points) / elapsed,
            "speedup_vs_serial": serial_elapsed / elapsed,
        }
    return rows
