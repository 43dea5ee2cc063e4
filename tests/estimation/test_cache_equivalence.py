"""Bit-identity of cached and class-plan estimates vs the cold path.

The memoization layer's contract is exact: enabling caches or pricing
points from class plans must not change a single bit of any Estimate.
These tests pickle both paths' results and compare the bytes — covering
randomized benchmarks, datasets, and parameter points (hypothesis), the
block API against single points, and a sharded
``explore --workers 2 --resume`` run.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.dse import explore
from repro.estimation import Estimator
from repro.ir import IRError

BENCH_NAMES = [b.name for b in all_benchmarks()]


@pytest.fixture(scope="module")
def cold(estimator) -> Estimator:
    """An uncached estimator sharing the session estimator's models."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, cache=False,
    )


def _sample_points(bench_name: str, seed: int, count: int, small: bool):
    """``(bench, dataset, points)`` for a seeded sample of one benchmark."""
    bench = get_benchmark(bench_name)
    dataset = bench.small_dataset() if small else bench.default_dataset()
    points = bench.param_space(dataset).sample(random.Random(seed), count)
    return bench, dataset, points


def _sample_designs(bench_name: str, seed: int, count: int, small: bool):
    """Legal built designs for ``count`` sampled points of one benchmark."""
    bench, dataset, points = _sample_points(bench_name, seed, count, small)
    designs = []
    for point in points:
        try:
            designs.append(bench.build(dataset, **point))
        except IRError:
            continue
    return designs


def _fingerprint(estimate) -> bytes:
    return pickle.dumps(estimate)


class TestBitIdentity:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        bench_name=st.sampled_from(BENCH_NAMES),
        seed=st.integers(min_value=0, max_value=10_000),
        small=st.booleans(),
    )
    def test_cached_and_batched_match_cold_path(
        self, estimator, cold, bench_name, seed, small
    ):
        """Cold, warm-cached, re-cached, and class-plan estimates agree
        byte-for-byte across random benchmarks/datasets/points."""
        bench, dataset, points = _sample_points(bench_name, seed, 4, small)
        designs = _sample_designs(bench_name, seed, 4, small)
        if not designs:
            return
        cold_fps = [_fingerprint(cold.estimate(d)) for d in designs]
        warm_fps = [_fingerprint(estimator.estimate(d)) for d in designs]
        hit_fps = [_fingerprint(estimator.estimate(d)) for d in designs]
        estimator.caches.points.clear()
        plan_fps = [
            _fingerprint(e)
            for e in estimator.estimate_points(bench, dataset, points)
            if e is not None
        ]
        assert cold_fps == warm_fps == hit_fps == plan_fps

    def test_estimate_points_is_order_and_batchsize_invariant(
        self, estimator
    ):
        """A point's estimate doesn't depend on its block companions."""
        bench, dataset, points = _sample_points("gda", 99, 6, small=True)
        assert len(points) >= 2

        def fingerprints(block):
            estimator.caches.clear()
            return [_fingerprint(e) for e in
                    estimator.estimate_points(bench, dataset, block)]

        singles = [fingerprints([p])[0] for p in points]
        together = fingerprints(points)
        reversed_fps = fingerprints(list(reversed(points)))
        assert singles == together == list(reversed(reversed_fps))

    def test_eviction_does_not_change_results(self, estimator):
        """Tiny bounds force constant eviction; results stay identical."""
        tiny = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections,
        )
        tiny.caches.template.maxsize = 2
        tiny.caches.points.maxsize = 1
        designs = _sample_designs("dotproduct", 5, 5, small=True)
        expected = [_fingerprint(estimator.estimate(d)) for d in designs]
        got = [_fingerprint(tiny.estimate(d)) for d in designs]
        assert got == expected
        assert tiny.caches.template.evictions > 0


class TestExploreEquivalence:
    def test_explore_workers_resume_bit_identical(
        self, estimator, cold, tmp_path
    ):
        """`explore --workers 2 --resume` returns byte-identical estimates
        to the serial uncached sweep (acceptance criterion)."""
        bench = get_benchmark("dotproduct")
        serial = explore(bench, cold, max_points=120, seed=9)
        ckpt = tmp_path / "ckpt"
        parallel = explore(
            bench, estimator, max_points=120, seed=9, workers=2,
            checkpoint_dir=ckpt,
        )
        resumed = explore(
            bench, estimator, max_points=120, seed=9, workers=2,
            checkpoint_dir=ckpt, resume=True,
        )
        assert resumed.restored == len(parallel.points)
        for a, b, c in zip(serial.points, parallel.points, resumed.points):
            assert a.params == b.params == c.params
            assert (_fingerprint(a.estimate) == _fingerprint(b.estimate)
                    == _fingerprint(c.estimate))

    def test_point_cache_dedupes_repeat_sweeps(self, estimator):
        """A repeated identical sweep is served from the points cache."""
        estimator.caches.clear()
        bench = get_benchmark("tpchq6")
        first = explore(bench, estimator, max_points=40, seed=4)
        hits_before = estimator.caches.points.hits
        second = explore(bench, estimator, max_points=40, seed=4)
        assert estimator.caches.points.hits >= hits_before + len(
            second.points
        )
        for a, b in zip(first.points, second.points):
            assert _fingerprint(a.estimate) == _fingerprint(b.estimate)
