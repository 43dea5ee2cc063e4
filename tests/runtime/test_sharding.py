"""Shard planning: disjoint cover, serial-identical enumeration."""

import random

import pytest

from repro.apps import get_benchmark
from repro.runtime import plan_shards


@pytest.fixture(scope="module")
def space():
    bench = get_benchmark("tpchq6")
    return bench.param_space(bench.default_dataset())


def serial_sample(space, seed, max_points):
    return space.sample(random.Random(seed), max_points)


def sampled(plan):
    """The plan's points as parameter dicts, decoded from its indices."""
    return plan.space.points([i for shard in plan.shards for i in shard.points])


class TestPlanShards:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_union_identical_to_serial(self, space, shards):
        reference = serial_sample(space, 5, 60)
        plan = plan_shards(space, 5, 60, shards)
        assert sampled(plan) == reference

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_disjoint_contiguous_cover(self, space, shards):
        plan = plan_shards(space, 5, 60, shards)
        covered = []
        for shard in plan.shards:
            covered.extend(shard.indices)
        assert covered == list(range(plan.total_points))

    def test_balanced_partition(self, space):
        plan = plan_shards(space, 5, 60, 7)
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == plan.total_points

    def test_more_shards_than_points(self, space):
        plan = plan_shards(space, 5, 3, 10)
        assert plan.n_shards <= 3
        assert plan.total_points == len(serial_sample(space, 5, 3))

    def test_rejects_bad_shard_counts(self, space):
        for bad in (0, -1, -7):
            with pytest.raises(ValueError, match="shards must be"):
                plan_shards(space, 5, 60, bad)
        with pytest.raises(ValueError, match="shards must be"):
            plan_shards(space, 5, 60, True)

    def test_rejects_bad_budgets(self, space):
        """An empty sweep is an error, never a silently empty plan."""
        for bad in (0, -1, 2.5, True, None):
            with pytest.raises(ValueError, match="max_points must be"):
                plan_shards(space, 5, bad, 2)

    def test_cardinality_recorded(self, space):
        plan = plan_shards(space, 5, 60, 2)
        assert plan.space_cardinality == space.cardinality


class TestShardRange:
    def test_ranges_tile_the_full_partition(self, space):
        full = plan_shards(space, 5, 60, 6)
        a = plan_shards(space, 5, 60, 6, shard_range=(0, 2))
        b = plan_shards(space, 5, 60, 6, shard_range=(2, 6))
        assert sampled(a) + sampled(b) == sampled(full)
        assert a.is_partial and b.is_partial and not full.is_partial
        assert a.planned_shards == b.planned_shards == 6
        assert a.global_points == full.total_points

    def test_ranged_shards_keep_global_indices(self, space):
        full = plan_shards(space, 5, 60, 6)
        ranged = plan_shards(space, 5, 60, 6, shard_range=(3, 5))
        by_index = {s.index: s for s in full.shards}
        for shard in ranged.shards:
            assert shard.start == by_index[shard.index].start
            assert tuple(shard.points) == tuple(by_index[shard.index].points)

    def test_out_of_bounds_range_rejected(self, space):
        for bad in ((0, 7), (-1, 2), (3, 3), (4, 2)):
            with pytest.raises(ValueError, match="shard_range"):
                plan_shards(space, 5, 60, 6, shard_range=bad)

    def test_non_integer_range_rejected(self, space):
        with pytest.raises(ValueError, match="pair of integers"):
            plan_shards(space, 5, 60, 6, shard_range=(0, True))


class TestResolveShardCount:
    """``shards`` is a positive int, used as given; nothing else resolves."""

    def test_int_passthrough(self, space):
        assert plan_shards(space, 5, 60, 7).planned_shards == 7

    def test_rejects_bogus_strings_and_bools(self, space):
        for bad in ("fast", "auto", 1.5, True):
            with pytest.raises(ValueError, match="shards must be"):
                plan_shards(space, 5, 60, bad)
