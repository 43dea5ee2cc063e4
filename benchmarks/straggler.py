"""Parallel-DSE measurement shared by the Table IV bench and the perf gate.

:func:`measure_parallel_dse` times a sharded ``explore`` per worker
count, each run on a fresh empty-cache estimator (same trained models)
so the ratio reflects the engine, not cache warmth. It asserts every
swept point set is bit-identical to the serial one before reporting
any timing, and the result is committed to ``BENCH_table4.json`` as a
host-independent *ratio* (never absolute points/sec, so 1-core CI
runners and 32-core workstations gate the same way).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.apps import get_benchmark
from repro.dse import explore
from repro.estimation import Estimator

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
