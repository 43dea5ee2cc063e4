"""Multi-host shard-range sweeps reunite to the exact serial point set.

The protocol under ``--shard-range`` / ``repro merge-checkpoints``: N
hosts sweep disjoint shard ranges of one global partition into a shared
checkpoint directory (shared filesystem or rsync'd afterwards), each
writing the same global manifest, and the merge tool
reassembles the union under the merge's conservation checks — bit-identical to
the serial sweep, or a loud error, never a silently smaller front.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore, merge_checkpoints
from repro.runtime import CheckpointError, ConservationError

POINTS = 40
SEED = 5
SHARDS = 6


@pytest.fixture()
def bench():
    return get_benchmark("tpchq6")


@pytest.fixture(scope="module")
def serial(estimator):
    bench = get_benchmark("tpchq6")
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


def fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


def front(result):
    return [(p.params, p.cycles, p.alms) for p in result.pareto]


def ranged_explore(bench, estimator, ckpt, lo, hi, workers=1):
    return explore(
        bench, estimator, max_points=POINTS, seed=SEED, shards=SHARDS,
        shard_range=(lo, hi), workers=workers, checkpoint_dir=ckpt,
    )


class TestTwoHostMerge:
    def test_disjoint_ranges_merge_to_serial(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "shared"
        ranged_explore(bench, estimator, ckpt, 0, 3)
        ranged_explore(bench, estimator, ckpt, 3, SHARDS)
        merged = merge_checkpoints(ckpt, estimator)
        assert fingerprint(merged) == fingerprint(serial)
        assert front(merged) == front(serial)
        assert merged.restored == POINTS

    def test_merge_records_the_serial_point_counters(
        self, estimator, bench, tmp_path
    ):
        """merge-checkpoints runs the same accounting pass as explore."""
        def point_counters(run):
            obs.reset()
            obs.enable()
            try:
                run()
                (top,) = obs.tracer().find("explore") or obs.tracer().find(
                    "merge_checkpoints"
                )
            finally:
                obs.disable()
                obs.reset()
            return {name: top.attrs[name] for name in (
                "points", "sampled", "illegal", "valid", "unfit", "restored"
            )}

        ckpt = tmp_path / "shared"
        ranged_explore(bench, estimator, ckpt, 0, 3)
        ranged_explore(bench, estimator, ckpt, 3, SHARDS)
        swept = point_counters(
            lambda: explore(bench, estimator, max_points=POINTS, seed=SEED)
        )
        merged = point_counters(lambda: merge_checkpoints(ckpt, estimator))
        assert swept["sampled"] == POINTS
        assert swept["restored"] == 0
        # Every merged point is restored; the outcome split is the sweep's.
        assert merged == {**swept, "restored": POINTS}

    @given(
        split=st.integers(min_value=1, max_value=SHARDS - 1),
        second_workers=st.sampled_from([1, 2]),
    )
    @settings(max_examples=5, deadline=None)
    def test_any_split_point_merges_to_serial(
        self, estimator, serial, split, second_workers
    ):
        """Property: wherever the partition is cut between two hosts —
        and whatever worker count the second host used — the merge is
        the serial sweep."""
        bench = get_benchmark("tpchq6")  # stateless; fresh per example
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "shared"
            ranged_explore(bench, estimator, ckpt, 0, split)
            ranged_explore(bench, estimator, ckpt, split, SHARDS,
                           workers=second_workers)
            merged = merge_checkpoints(ckpt, estimator)
            assert fingerprint(merged) == fingerprint(serial)

    def test_ranged_result_covers_only_its_range(
        self, estimator, bench, serial, tmp_path
    ):
        result = ranged_explore(bench, estimator, tmp_path / "c", 0, 3)
        assert result.shard_range == (0, 3)
        assert result.total_shards == SHARDS
        assert result.shards == 3
        assert 0 < result.legal_sampled < POINTS
        # The first half of the partition is a prefix of the global order.
        assert fingerprint(result) == (
            fingerprint(serial)[: len(result.points)]
        )

    def test_manifest_describes_global_run(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "shared"
        ranged_explore(bench, estimator, ckpt, 2, 4)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["shards"] == SHARDS
        assert manifest["max_points"] == POINTS
        assert manifest["seed"] == SEED


class TestMergeFailsLoud:
    def test_missing_range_is_conservation_error(
        self, estimator, bench, tmp_path
    ):
        ckpt = tmp_path / "shared"
        ranged_explore(bench, estimator, ckpt, 0, 3)
        with pytest.raises(ConservationError):
            merge_checkpoints(ckpt, estimator)

    def test_ranged_run_refuses_foreign_directory(
        self, estimator, bench, tmp_path
    ):
        ckpt = tmp_path / "shared"
        explore(bench, estimator, max_points=POINTS, seed=SEED + 1,
                shards=SHARDS, checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError,
                           match="refusing to add this shard range"):
            ranged_explore(bench, estimator, ckpt, 0, 3)

    def test_merge_requires_manifest(self, estimator, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            merge_checkpoints(tmp_path / "empty", estimator)
