"""Merge layer: conservation accounting and the merged Pareto front."""

import pytest

from repro.apps import get_benchmark
from repro.dse import explore
from repro.dse.pareto import pareto_front
from repro.runtime import (
    Conservation,
    ConservationError,
    merge_outcomes,
    plan_shards,
    run_plan,
)


@pytest.fixture(scope="module")
def executed(estimator):
    bench = get_benchmark("tpchq6")
    dataset = bench.default_dataset()
    space = bench.param_space(dataset)
    plan = plan_shards(space, 5, 40, 4)
    run = run_plan(bench, estimator, dataset, plan)
    return plan, run


class TestConservation:
    def test_clean_run_balances(self, executed):
        plan, run = executed
        records, stats = merge_outcomes(plan, run.outcomes)
        stats.verify()
        assert stats.planned == plan.total_points
        assert stats.merged == len(records)
        assert stats.estimated == plan.total_points
        assert stats.restored == 0
        assert stats.illegal + stats.valid + stats.unfit == stats.planned

    def test_records_in_global_order(self, executed):
        plan, run = executed
        records, _ = merge_outcomes(plan, run.outcomes)
        assert [r.index for r in records] == list(range(plan.total_points))

    def test_dropped_shard_detected(self, executed):
        plan, run = executed
        _, stats = merge_outcomes(plan, run.outcomes[:-1])
        assert stats.missing_indices > 0
        with pytest.raises(ConservationError, match="missing"):
            stats.verify()

    def test_duplicated_shard_detected(self, executed):
        plan, run = executed
        _, stats = merge_outcomes(plan, run.outcomes + [run.outcomes[0]])
        assert stats.duplicate_indices > 0
        with pytest.raises(ConservationError, match="duplicated"):
            stats.verify()

    def test_as_dict_roundtrip(self):
        stats = Conservation(planned=3, merged=3, estimated=2, restored=1,
                             illegal=1, valid=1, unfit=1)
        stats.verify()


class TestParetoMerge:
    def test_matches_explore_front(self, estimator):
        bench = get_benchmark("tpchq6")
        result = explore(bench, estimator, max_points=40, seed=5, shards=4)
        key = lambda p: (p.cycles, float(p.alms))
        front = pareto_front(result.valid_points, key=key)
        assert [key(p) for p in result.pareto] == [key(p) for p in front]
