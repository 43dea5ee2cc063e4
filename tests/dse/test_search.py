"""Tests for guided local search and N-dimensional Pareto extraction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import get_benchmark
from repro.dse import explore, local_search, pareto_front_nd


class TestLocalSearch:
    @pytest.fixture(scope="class")
    def result(self, estimator):
        bench = get_benchmark("tpchq6")
        return local_search(bench, estimator, budget=150, seed=9)

    def test_finds_valid_best(self, result):
        assert result.best is not None
        assert result.best.valid

    def test_respects_budget(self, result):
        assert result.evaluations <= 150

    def test_trajectory_monotone_nonincreasing(self, result):
        finite = [c for c in result.trajectory if c != float("inf")]
        assert all(a >= b for a, b in zip(finite, finite[1:]))

    def test_uses_restarts(self, result):
        assert result.restarts >= 1

    def test_competitive_with_random_at_equal_budget(self, estimator):
        bench = get_benchmark("gda")
        search = local_search(bench, estimator, budget=200, seed=5)
        rand = explore(bench, estimator, max_points=200, seed=5)
        assert search.best is not None and rand.best is not None
        assert search.best.cycles <= rand.best.cycles * 1.15

    def test_deterministic(self, estimator):
        bench = get_benchmark("tpchq6")
        a = local_search(bench, estimator, budget=80, seed=4)
        b = local_search(bench, estimator, budget=80, seed=4)
        assert a.best.params == b.best.params
        assert a.evaluations == b.evaluations

    def test_shares_point_cache_with_explore(self, estimator):
        """Search dedupes through the estimator's shared design-point
        cache: points it already priced never build or estimate again,
        and entries are interchangeable with the sweep runner's."""
        import pickle

        estimator.caches.clear()
        bench = get_benchmark("tpchq6")
        swept = explore(bench, estimator, max_points=150, seed=9)
        first = local_search(bench, estimator, budget=100, seed=9)
        misses_after = estimator.caches.points.misses
        hits_after = estimator.caches.points.hits
        second = local_search(bench, estimator, budget=100, seed=9)
        # The repeat search re-visits identical points: zero new builds,
        # one shared-cache hit per evaluation.
        assert estimator.caches.points.misses == misses_after
        assert (estimator.caches.points.hits
                == hits_after + second.evaluations)
        assert pickle.dumps(first.best.estimate) == pickle.dumps(
            second.best.estimate
        )
        # Entries are keyed identically to explore's, so any overlap
        # with the sweep reuses the sweep's exact estimate.
        by_params = {
            tuple(sorted(p.params.items())): p.estimate for p in swept.points
        }
        key = tuple(sorted(first.best.params.items()))
        if key in by_params:
            assert pickle.dumps(by_params[key]) == pickle.dumps(
                first.best.estimate
            )

    def test_search_without_caches_matches_cached(self, estimator):
        """An uncached estimator walks the identical trajectory."""
        from repro.estimation import Estimator

        cold = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        a = local_search(get_benchmark("tpchq6"), estimator,
                         budget=60, seed=11)
        b = local_search(get_benchmark("tpchq6"), cold, budget=60, seed=11)
        assert a.evaluations == b.evaluations
        assert a.trajectory == b.trajectory
        assert a.best.params == b.best.params

    @pytest.mark.parametrize("knob", ["budget"])
    def test_rejects_non_positive_knobs(self, estimator, knob):
        bench = get_benchmark("tpchq6")
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"{knob} must be"):
                local_search(bench, estimator, **{knob: bad})

    def test_neighbors_stay_legal(self):
        """On every Table II space, each neighbour is legal, one candidate
        step away and carries its own index, from inner points and from
        the first and last candidates of every parameter."""
        import random

        from repro.apps import all_benchmarks
        from repro.dse.search import _neighbors

        for bench in all_benchmarks():
            ds = bench.default_dataset()
            space = bench.param_space(ds)
            starts = [0, space.cardinality - 1,
                      space.encode(bench.default_params(ds))]
            starts += space.sample_indices(random.Random(2), 5).tolist()
            checked = 0
            for index in starts:
                (point,) = space.points([index])
                for carried, neighbor in _neighbors(space, index, point,
                                                    random.Random(index)):
                    assert carried == space.encode(neighbor), bench.name
                    assert space.is_legal(neighbor)
                    (moved,) = [p for p in space.params
                                if neighbor[p.name] != point[p.name]]
                    steps = (moved.candidates.index(neighbor[moved.name])
                             - moved.candidates.index(point[moved.name]))
                    assert abs(steps) == 1
                    checked += 1
            assert checked, bench.name


class TestParetoND:
    def test_three_objectives(self):
        pts = [(1, 5, 5), (2, 3, 4), (3, 4, 1), (2, 3, 5), (5, 5, 5)]
        front = pareto_front_nd(pts, key=lambda p: p)
        assert (1, 5, 5) in front
        assert (2, 3, 4) in front
        assert (3, 4, 1) in front
        assert (2, 3, 5) not in front  # dominated by (2, 3, 4)
        assert (5, 5, 5) not in front

    def test_single_point(self):
        assert pareto_front_nd([(1, 1, 1)], key=lambda p: p) == [(1, 1, 1)]

    def test_matches_2d_front(self):
        from repro.dse import pareto_front

        pts = [(1, 5), (2, 3), (3, 4), (4, 1), (5, 2)]
        nd = set(pareto_front_nd(pts, key=lambda p: p))
        two = set(pareto_front(pts, key=lambda p: p))
        assert nd == two

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                              st.integers(0, 10)), min_size=1, max_size=40))
    def test_front_never_empty_and_undominated(self, pts):
        front = pareto_front_nd(pts, key=lambda p: p)
        assert front
        for member in front:
            for other in pts:
                strictly_better = all(
                    o <= m for o, m in zip(other, member)
                ) and any(o < m for o, m in zip(other, member))
                assert not strictly_better
