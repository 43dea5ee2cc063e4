"""Forked pool with more shards than workers: gauges and kill/resume.

The pool's observable behaviour — the queued-shard count, per-worker
utilization gauges — and its crash story: a 7-shard, 2-worker sweep
killed while workers are draining queued shards must resume to the
exact serial point set, including when the kill tears a JSONL line in
half.
"""

import os

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore
from repro.runtime import CheckpointStore, plan_shards, run_plan

POINTS = 48
SEED = 5


@pytest.fixture()
def bench():
    return get_benchmark("tpchq6")


@pytest.fixture(scope="module")
def serial(estimator):
    bench = get_benchmark("tpchq6")
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


def fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


class TestStealAccounting:
    def test_serial_runs_never_steal(self, estimator, bench):
        """Only forked shards past the first fill count as queued."""
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), SEED, POINTS, 4)
        serial = run_plan(bench, estimator, dataset, plan)
        assert serial.steals == 0
        assert all(o.worker == 0 for o in serial.outcomes)
        forked = run_plan(bench, estimator, dataset, plan, workers=2)
        assert forked.steals == 2
        # Only a forked child stamps its pid on the outcome.
        assert all(o.worker not in (0, os.getpid()) for o in forked.outcomes)

    def test_utilization_gauges_recorded(self, estimator, bench):
        obs.reset()
        obs.enable(metrics=True)
        try:
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=7, workers=2)
            doc = obs.metrics().to_dict()
        finally:
            obs.disable()
            obs.reset()
        gauges = doc["gauges"]
        active = int(gauges["dse.workers.active"])
        assert 1 <= active <= 2
        for slot in range(active):
            utilization = gauges[f"dse.worker.{slot}.utilization"]
            assert 0.0 <= utilization <= 1.0


class TestSplitShardResume:
    """Kill/resume round-trips with more shards than workers (7 on 2)."""

    def _checkpointed(self, estimator, bench, tmp_path, **kwargs):
        ckpt = tmp_path / "ckpt"
        first = explore(bench, estimator, max_points=POINTS, seed=SEED,
                        checkpoint_dir=ckpt, **kwargs)
        return ckpt, first

    def test_kill_mid_steal_resumes_to_serial(
        self, estimator, bench, serial, tmp_path
    ):
        """Drop done markers and tails as if killed mid-sweep."""
        ckpt, _ = self._checkpointed(
            estimator, bench, tmp_path, shards=7, workers=2
        )
        # Shards 0-1 finished, shard 2 was mid-file, 3-6 never started.
        path = ckpt / "shard-0002.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        for index in range(3, 7):
            (ckpt / f"shard-{index:04d}.jsonl").unlink()

        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=7, workers=2, checkpoint_dir=ckpt,
                          resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert 0 < resumed.restored < POINTS
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), SEED, POINTS, 7)
        states = CheckpointStore(ckpt).load(
            bench.name, dataset, plan, estimator.board
        )
        assert all(state.complete for state in states.values())

    def test_torn_tail_under_micro_sharding(
        self, estimator, bench, serial, tmp_path
    ):
        """A kill mid-write with queued shards leaves a half-written line."""
        ckpt, first = self._checkpointed(
            estimator, bench, tmp_path, shards=7, workers=2
        )
        assert first.shards == 7
        shard_files = sorted(ckpt.glob("shard-*.jsonl"))
        assert len(shard_files) == first.shards
        # Tear one file mid-line and truncate another to half its records.
        torn = shard_files[1].read_text()
        shard_files[1].write_text(torn[:-40])
        partial = shard_files[2].read_text().splitlines()
        shard_files[2].write_text(
            "\n".join(partial[: len(partial) // 2]) + "\n"
        )

        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=first.total_shards, workers=2,
                          checkpoint_dir=ckpt, resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert 0 < resumed.restored < POINTS
