"""CI perf gate for the estimation hot path and the parallel DSE engine.

Gates three sections of ``BENCH_table4.json``, all as *ratios* (never
absolute points/sec: both the committed number and the fresh one divide
two wall times on the same host, so slow CI runners cancel out):

* ``estimation_cache`` — end-to-end ``explore`` speedup per benchmark of
  the default estimator (compiled class plans) over ``--no-cache``
  (building and estimating every design): a class stops compiling, a
  plan grows slow, or plan compilation starts to dominate;
* ``parallel_dse`` — the ``workers=2`` sharded sweep's
  ``speedup_vs_serial`` (fork/scheduler overhead creeping in);
* ``work_stealing`` — adaptive micro-shards vs the static split on the
  straggler-skewed sweep (the streaming scheduler stops stealing; see
  ``benchmarks/straggler.py``).

A fresh ratio more than ``REGRESSION_TOLERANCE`` (30%) below its
committed value fails the gate.  Set ``REPRO_SKIP_PERF_GATE=1`` to skip
entirely, e.g. on heavily loaded runners where even ratios get noisy.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_gate.py
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REGRESSION_TOLERANCE = 0.30
SKIP_ENV = "REPRO_SKIP_PERF_GATE"
N_GATE_POINTS = 300
SAMPLE_SEED = 17
REPEATS = 3  # best-of-N wall times; noise only ever slows a run down

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_table4.json"


def evaluate(
    baseline: Dict[str, float],
    measured: Dict[str, float],
    tolerance: float = REGRESSION_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Gate fresh speedup ratios against committed ones.

    Pure logic (no measurement, no I/O) so tests can drive it directly:
    a benchmark passes when its fresh speedup is at least
    ``(1 - tolerance)`` of the committed speedup.  A benchmark present
    in the baseline but missing from ``measured`` fails the gate.
    Returns ``(ok, report_lines)``.
    """
    ok = True
    lines = []
    for name in sorted(baseline):
        committed = float(baseline[name])
        floor = committed * (1.0 - tolerance)
        fresh = measured.get(name)
        if fresh is None:
            ok = False
            lines.append(f"{name}: no fresh measurement -> FAIL")
            continue
        passed = fresh >= floor
        ok = ok and passed
        lines.append(
            f"{name}: committed {committed:.2f}x, fresh {fresh:.2f}x, "
            f"floor {floor:.2f}x -> {'ok' if passed else 'REGRESSION'}"
        )
    return ok, lines


def measure_speedups(
    bench_names, n_points: int = N_GATE_POINTS, estimator=None
) -> Dict[str, Dict[str, float]]:
    """Fresh class-plan vs ``--no-cache`` explore rows per benchmark.

    Both sides run the same seeded ``n_points`` serial ``explore``, each
    repeat on a fresh estimator sharing ``estimator``'s trained models
    (default: the shared default estimator's), so the class-plan side
    compiles its plans inside the timed call just as every CLI sweep
    does. Bit-identity of every estimate is asserted; ``speedup`` is the
    gated ratio. The Table IV benchmark records its committed
    ``estimation_cache`` section with this same function.
    """
    from repro.apps import get_benchmark
    from repro.dse import explore
    from repro.estimation import Estimator, default_estimator

    models = estimator or default_estimator()

    def best_sweep(bench, cache: bool):
        best, result = float("inf"), None
        for _ in range(REPEATS):
            fresh = Estimator(
                models.board, templates=models.templates,
                corrections=models.corrections, cache=cache,
            )
            start = time.perf_counter()
            result = explore(bench, fresh, max_points=n_points,
                             seed=SAMPLE_SEED)
            best = min(best, time.perf_counter() - start)
        return best, result

    rows: Dict[str, Dict[str, float]] = {}
    for name in bench_names:
        bench = get_benchmark(name)
        uncached_s, cold = best_sweep(bench, cache=False)
        cached_s, warm = best_sweep(bench, cache=True)
        if [pickle.dumps(p.estimate) for p in cold.points] != [
            pickle.dumps(p.estimate) for p in warm.points
        ]:
            raise AssertionError(
                f"{name}: class-plan estimates diverged from --no-cache"
            )
        points = len(warm.points)
        rows[name] = {
            "points": points,
            "uncached_s": uncached_s,
            "cached_s": cached_s,
            "uncached_points_per_sec": points / uncached_s,
            "cached_points_per_sec": points / cached_s,
            "speedup": uncached_s / cached_s,
        }
    return rows


def load_baseline(path: Path = BENCH_JSON) -> Dict[str, float]:
    """Committed class-plan explore speedups from BENCH_table4.json."""
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    section = doc.get("estimation_cache", {})
    return {
        name: float(row["speedup"])
        for name, row in section.get("benchmarks", {}).items()
    }


def load_runtime_baseline(path: Path = BENCH_JSON) -> Dict[str, float]:
    """Committed parallel-DSE and work-stealing ratios, or {} if absent.

    Keys are gate-report labels: ``parallel_dse.workers2`` is the
    2-worker sharded sweep's speedup over the serial sweep,
    ``work_stealing`` is the adaptive-vs-static ratio on the
    straggler-skewed sweep.
    """
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    baseline: Dict[str, float] = {}
    workers = doc.get("parallel_dse", {}).get("workers", {})
    if "2" in workers:
        baseline["parallel_dse.workers2"] = float(
            workers["2"]["speedup_vs_serial"]
        )
    stealing = doc.get("work_stealing", {})
    if "speedup" in stealing:
        baseline["work_stealing"] = float(stealing["speedup"])
    return baseline


def measure_runtime_ratios(baseline: Dict[str, float]) -> Dict[str, float]:
    """Fresh parallel-DSE / work-stealing ratios for the gated keys.

    Reuses the exact measurement harness the Table IV benchmark commits
    from (``benchmarks/straggler.py``), so committed and fresh ratios
    come from the same protocol.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from straggler import measure_parallel_dse, measure_work_stealing
    finally:
        sys.path.pop(0)
    from repro.estimation import default_estimator

    estimator = default_estimator()
    measured: Dict[str, float] = {}
    if "parallel_dse.workers2" in baseline:
        rows = measure_parallel_dse(estimator, workers_list=(1, 2))
        measured["parallel_dse.workers2"] = rows["2"]["speedup_vs_serial"]
    if "work_stealing" in baseline:
        measured["work_stealing"] = measure_work_stealing(estimator)[
            "speedup"
        ]
    return measured


def main(argv=None) -> int:
    """Entry point: 0 on pass/skip, 1 on regression."""
    if os.environ.get(SKIP_ENV):
        print(f"perf gate skipped ({SKIP_ENV} set)")
        return 0
    cache_baseline = load_baseline()
    runtime_baseline = load_runtime_baseline()
    if not cache_baseline and not runtime_baseline:
        print(
            "perf gate: no gateable baselines in "
            f"{BENCH_JSON.name}; run the Table IV benchmark to record them"
        )
        return 0
    ok = True
    if cache_baseline:
        rows = measure_speedups(sorted(cache_baseline))
        measured = {name: row["speedup"] for name, row in rows.items()}
        cache_ok, lines = evaluate(cache_baseline, measured)
        ok = ok and cache_ok
        print(
            "class-plan explore perf gate "
            f"(tolerance {REGRESSION_TOLERANCE:.0%} of committed speedup):"
        )
        for line in lines:
            print(f"  {line}")
    if runtime_baseline:
        measured = measure_runtime_ratios(runtime_baseline)
        runtime_ok, lines = evaluate(runtime_baseline, measured)
        ok = ok and runtime_ok
        print(
            "parallel-DSE / work-stealing perf gate "
            f"(tolerance {REGRESSION_TOLERANCE:.0%} of committed ratio):"
        )
        for line in lines:
            print(f"  {line}")
    if not ok:
        print(f"perf gate FAILED; set {SKIP_ENV}=1 to bypass")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
