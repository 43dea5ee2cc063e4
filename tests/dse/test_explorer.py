"""Tests for the design space explorer."""

import pytest

from repro.apps import get_benchmark
from repro.dse import explore


@pytest.fixture(scope="module")
def dp_result(estimator):
    bench = get_benchmark("dotproduct")
    return explore(bench, estimator, max_points=120, seed=11)


class TestExploration:
    def test_points_estimated(self, dp_result):
        assert len(dp_result.points) > 50
        assert all(p.estimate.cycles > 0 for p in dp_result.points)

    def test_all_points_respect_pruning(self, dp_result):
        for p in dp_result.points:
            assert p.params["tile"] % p.params["par_inner"] == 0
            assert p.params["tile"] % p.params["par_load"] == 0

    def test_pareto_subset_of_valid(self, dp_result):
        valid_ids = {id(p) for p in dp_result.valid_points}
        assert all(id(p) in valid_ids for p in dp_result.pareto)

    def test_pareto_no_internal_dominance(self, dp_result):
        front = dp_result.pareto
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    a.cycles <= b.cycles
                    and a.alms <= b.alms
                    and (a.cycles < b.cycles or a.alms < b.alms)
                )

    def test_best_is_fastest_valid(self, dp_result):
        best = dp_result.best
        assert best is not None
        assert all(best.cycles <= p.cycles for p in dp_result.valid_points)

    def test_space_cardinality_reported(self, dp_result):
        assert dp_result.space_cardinality > len(dp_result.points)

    def test_pareto_sample_spacing(self, dp_result):
        sample = dp_result.pareto_sample(5)
        assert len(sample) <= 5
        cycles = [p.cycles for p in sample]
        assert cycles == sorted(cycles)
        # A sample of one is the fastest front point.
        assert len(dp_result.pareto) > 1
        assert dp_result.pareto_sample(1) == dp_result.pareto[:1]
        assert dp_result.pareto[0].cycles == dp_result.best.cycles

    def test_pareto_is_computed_once(self, estimator, monkeypatch):
        from repro.dse import explorer

        original, calls = explorer.pareto_front, []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(explorer, "pareto_front", counted)
        result = explore(get_benchmark("dotproduct"), estimator,
                         max_points=60, seed=3)
        front = result.pareto
        assert result.pareto_sample(3) and result.pareto is front
        assert len(calls) == 1

    def test_deterministic_given_seed(self, estimator):
        bench = get_benchmark("tpchq6")
        r1 = explore(bench, estimator, max_points=40, seed=5)
        r2 = explore(bench, estimator, max_points=40, seed=5)
        assert [p.params for p in r1.points] == [p.params for p in r2.points]
        assert [p.cycles for p in r1.points] == [p.cycles for p in r2.points]

    def test_different_seeds_different_samples(self, estimator):
        bench = get_benchmark("tpchq6")
        r1 = explore(bench, estimator, max_points=40, seed=5)
        r2 = explore(bench, estimator, max_points=40, seed=6)
        assert [p.params for p in r1.points] != [p.params for p in r2.points]


    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_non_positive_budget(self, estimator, budget):
        with pytest.raises(ValueError, match="max_points must be"):
            explore(get_benchmark("dotproduct"), estimator,
                    max_points=budget)


class TestInvalidPoints:
    def test_oversized_designs_marked_invalid(self, estimator):
        """kmeans at extreme parallelization must blow past the device."""
        bench = get_benchmark("kmeans")
        result = explore(bench, estimator, max_points=150, seed=2)
        assert any(not p.valid for p in result.points)
        assert any(p.valid for p in result.points)
