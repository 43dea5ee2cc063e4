"""The DSE ledger's own logic: no imports from ``repro``.

Everything here works on plain numbers, tuples and span lists so it can
be unit-tested without building a design: golden-digest comparison,
failure counting, host-speed sampling, span self times, the unattributed
share of a traced run, and worker-pool utilization.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Cycle estimates may drift by this relative amount and still match (the
#: bound a reassociating vectorized estimator is allowed). ALMs, DSPs,
#: BRAMs and Pareto membership must match exactly.
CYCLES_RTOL = 1e-12

#: One estimated point as the ledger compares it:
#: ``(cycles, alms, dsps, brams)`` or, in golden digests,
#: ``(cycles, alms, dsps, brams, on_front)``. ``None`` is an IR-illegal
#: point, which is an outcome, not a failure.
Row = Optional[Tuple]

#: One recorded span: ``(layer, start_s, end_s, parent_index)``; the
#: parent index is ``None`` for a root (one timed public call).
Span = Tuple[str, float, float, Optional[int]]


def cycles_match(want: float, got: float) -> bool:
    """Whether two cycle estimates agree within :data:`CYCLES_RTOL`."""
    return abs(want - got) <= CYCLES_RTOL * max(abs(want), abs(got))


def rows_match(want: Row, got: object) -> bool:
    """Whether an estimated point matches its expected row.

    ``got`` may be an exception instance (the point raised something the
    caller did not classify as an outcome); that never matches.
    """
    if isinstance(got, BaseException):
        return False
    if want is None or got is None:
        return want is None and got is None
    if len(want) != len(got):
        return False
    return cycles_match(want[0], got[0]) and tuple(want[1:]) == tuple(got[1:])


def count_mismatches(want: Sequence[Row], got: Sequence[object]) -> int:
    """Points of ``got`` that fail against the golden ``want`` rows.

    A length mismatch means the sample itself changed, so every point of
    the longer list counts as failed.
    """
    if len(want) != len(got):
        return max(len(want), len(got), 1)
    return sum(1 for w, g in zip(want, got) if not rows_match(w, g))


#: Seconds one speed sample takes on the reference host (a 2-vCPU Xeon
#: VM, Python 3.11, lightly loaded). Timings are scaled to this speed.
REFERENCE_SAMPLE_S = 0.0005


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b


def speed_sample() -> float:
    """Seconds for a fixed mix of interpreter work.

    Arithmetic, small-object allocation with dict updates, and a keyed
    sort: the kinds of work the DSE pipeline does. Under memory-bandwidth
    contention this mix slows about as much as a kmeans sweep does, where
    a pure arithmetic loop slows only two thirds as much.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2_000):
        acc += i * i % 7
    table = {}
    for pair in [_Pair(i, str(i)) for i in range(300)]:
        table[pair.b] = pair.a + len(pair.b)
    for x in sorted(range(1_500), key=lambda v: -v)[:1_000]:
        acc += x
    return time.perf_counter() - start


def calibrate(repeats: int = 50) -> float:
    """Median seconds of :func:`speed_sample`: the host's speed now."""
    return statistics.median(speed_sample() for _ in range(repeats))


class SpeedSampler:
    """Samples the host's speed while the measured work runs.

    A ``SIGALRM`` handler times :func:`speed_sample` every
    ``interval_s``, interleaved with the work itself, so the samples see
    the same neighbours the work does. The handler costs about 0.5% of
    the wall time, the same on every commit. Forked children inherit no
    timer.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        self.samples.append((time.perf_counter(), speed_sample()))

    def sample_s(self, start: float, end: float) -> float:
        """Median sample time between two ``perf_counter`` readings."""
        inside = [s for t, s in self.samples if start <= t <= end]
        return statistics.median(inside or [s for _, s in self.samples])


def to_reference_s(wall_s: float, sample_s: float) -> float:
    """``wall_s`` scaled to the reference host's speed."""
    return wall_s * REFERENCE_SAMPLE_S / sample_s


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed points over attempted points (0 when nothing was tried)."""
    return failed / attempted if attempted else 0.0


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Wrappers nest (``build`` encloses ``finalize``), so a layer's self
    time is what it spent outside every layer it called.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer name, over every non-root span."""
    out: Dict[str, float] = {}
    for (layer, _, _, parent), own in zip(spans, self_times(spans)):
        if parent is not None:
            out[layer] = out.get(layer, 0.0) + own
    return out


def layer_counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per layer name."""
    out: Dict[str, int] = {}
    for layer, _, _, _ in spans:
        out[layer] = out.get(layer, 0) + 1
    return out


def traced_wall(spans: Sequence[Span]) -> float:
    """Total duration of the root spans: the timed calls themselves."""
    return sum(end - start for _, start, end, parent in spans
               if parent is None)


def unattributed_share(spans: Sequence[Span]) -> float:
    """Share of the traced wall that no layer's self time covers.

    Roots are the timed public calls; every other span is a layer. What
    is left of the roots' duration after all layer self times is time
    spent in code no wrapper names.
    """
    wall = traced_wall(spans)
    if wall <= 0:
        return 0.0
    covered = sum(layer_self_times(spans).values())
    return max(wall - covered, 0.0) / wall


def pool_metrics(
    wall_s: float, workers: int, busy: Sequence[Tuple[int, float]]
) -> Dict[str, float]:
    """Utilization of one engine run from its shard outcomes.

    ``busy`` holds ``(worker id, elapsed_s)`` per shard outcome. The busy
    share is total shard time over ``workers × wall``; dispatch overhead
    is the wall time the busiest worker was not running shards (fork,
    dispatch, result transfer, join).
    """
    per_worker: Dict[int, float] = {}
    for worker, elapsed in busy:
        per_worker[worker] = per_worker.get(worker, 0.0) + elapsed
    total = sum(per_worker.values())
    busiest = max(per_worker.values(), default=0.0)
    return {
        "worker_busy_share": total / (workers * wall_s) if wall_s > 0 else 0.0,
        "dispatch_overhead_s": max(wall_s - busiest, 0.0),
    }
