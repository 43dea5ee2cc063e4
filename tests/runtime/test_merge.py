"""Merge layer: one outcome per shard, conservation, the merged front."""

import pytest

from repro.apps import get_benchmark
from repro.dse import explore
from repro.dse.pareto import pareto_front
from repro.runtime import (
    ConservationError,
    ShardOutcome,
    fork_available,
    merge_outcomes,
    plan_shards,
    run_plan,
)
from repro.runtime.checkpoint import CheckpointStore


@pytest.fixture(scope="module")
def executed(estimator):
    bench = get_benchmark("tpchq6")
    dataset = bench.default_dataset()
    space = bench.param_space(dataset)
    plan = plan_shards(space, 5, 40, 4)
    run = run_plan(bench, estimator, dataset, plan)
    return plan, run


def _copy(outcome, records=None):
    return ShardOutcome(outcome.shard, list(
        outcome.records if records is None else records
    ))


class TestConservation:
    def test_clean_run_balances(self, executed):
        plan, run = executed
        assert [o.shard for o in run.outcomes] == [0, 1, 2, 3]
        assert sum(len(o.records) for o in run.outcomes) == plan.total_points
        assert all(o.restored == 0 for o in run.outcomes)

    def test_records_in_global_order(self, executed):
        plan, run = executed
        records = merge_outcomes(plan, run.outcomes)
        assert [r.index for r in records] == list(range(plan.total_points))

    def test_dropped_shard_detected(self, executed):
        plan, run = executed
        with pytest.raises(ConservationError,
                           match="conservation: shard 3 has 0 outcomes"):
            merge_outcomes(plan, run.outcomes[:-1])

    def test_duplicated_shard_detected(self, executed):
        plan, run = executed
        with pytest.raises(ConservationError,
                           match="conservation: shard 0 has 2 outcomes"):
            merge_outcomes(plan, run.outcomes + [_copy(run.outcomes[0])])

    def test_missing_index_detected(self, executed):
        plan, run = executed
        outcomes = list(run.outcomes)
        outcomes[1] = _copy(outcomes[1], outcomes[1].records[:-1])
        with pytest.raises(ConservationError,
                           match="conservation: shard 1's records"):
            merge_outcomes(plan, outcomes)

    def test_foreign_index_detected(self, executed):
        plan, run = executed
        outcomes = list(run.outcomes)
        foreign = outcomes[2].records[0]
        outcomes[1] = _copy(outcomes[1], outcomes[1].records + [foreign])
        with pytest.raises(ConservationError,
                           match="conservation: shard 1's records"):
            merge_outcomes(plan, outcomes)

    def test_unplanned_shard_detected(self, executed):
        plan, run = executed
        stray = ShardOutcome(len(run.outcomes))
        with pytest.raises(ConservationError,
                           match="conservation: shard 4 is not in the plan"):
            merge_outcomes(plan, run.outcomes + [stray])


def _shard_indices(run):
    return [(o.shard, [r.index for r in o.records]) for o in run.outcomes]


class TestOneOutcomePerShard:
    """run_plan hands the merge one whole outcome per planned shard."""

    @pytest.fixture()
    def setup(self, estimator):
        bench = get_benchmark("tpchq6")
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), 5, 300, 3)
        expected = [(s.index, list(s.indices)) for s in plan.shards]
        return bench, dataset, plan, expected

    def test_resumed_shards_come_home_whole(self, estimator, setup,
                                            tmp_path):
        bench, dataset, plan, expected = setup
        run_plan(bench, estimator, dataset, plan,
                 store=CheckpointStore(tmp_path))
        lines = (tmp_path / "shard-0001.jsonl").read_text().splitlines()
        (tmp_path / "shard-0001.jsonl").write_text(
            "\n".join(lines[:40]) + "\n"
        )
        (tmp_path / "shard-0002.jsonl").unlink()
        run = run_plan(bench, estimator, dataset, plan,
                       store=CheckpointStore(tmp_path), resume=True)
        # The complete shard comes first, undispatched.
        assert sorted(_shard_indices(run)) == expected
        assert [(o.shard, o.restored) for o in run.outcomes] == [
            (0, 100), (1, 40), (2, 0)
        ]
        assert len(merge_outcomes(plan, run.outcomes)) == 300

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_run(self, estimator, setup):
        bench, dataset, plan, expected = setup
        run = run_plan(bench, estimator, dataset, plan, workers=2)
        assert _shard_indices(run) == expected

    def test_shard_range(self, estimator, setup, tmp_path):
        bench, dataset, _, expected = setup
        plan = plan_shards(bench.param_space(dataset), 5, 300, 3,
                           shard_range=(1, 3))
        run = run_plan(bench, estimator, dataset, plan,
                       store=CheckpointStore(tmp_path))
        assert _shard_indices(run) == expected[1:]


class TestParetoMerge:
    def test_matches_explore_front(self, estimator):
        bench = get_benchmark("tpchq6")
        result = explore(bench, estimator, max_points=40, seed=5, shards=4)
        key = lambda p: (p.cycles, float(p.alms))
        front = pareto_front(result.valid_points, key=key)
        assert [key(p) for p in result.pareto] == [key(p) for p in front]
