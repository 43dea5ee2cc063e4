"""The engine's headline guarantee: shard/worker counts never change results.

The matrix required by the runtime issue: ``explore(seed=S)`` with
``shards ∈ {1, 2, 7, 16}`` x ``workers ∈ {1, 2}`` must yield identical
sampled-point sets and identical Pareto fronts. Estimates must match
exactly (not approximately): the parallel path runs the same estimator
code on the same points, so even float results are bit-equal.
"""

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore

POINTS = 48
SEED = 5


def fingerprint(result):
    """Everything determinism covers: order, params, and exact estimates."""
    return [
        (p.params, p.cycles, p.alms, p.estimate.brams, p.valid)
        for p in result.points
    ]


def front(result):
    return [(p.params, p.cycles, p.alms) for p in result.pareto]


@pytest.fixture(scope="module")
def serial(estimator):
    bench = get_benchmark("tpchq6")
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shards", [1, 2, 7, 16])
def test_matrix_identical_to_serial(estimator, serial, shards, workers):
    bench = get_benchmark("tpchq6")
    result = explore(
        bench, estimator, max_points=POINTS, seed=SEED,
        shards=shards, workers=workers,
    )
    assert fingerprint(result) == fingerprint(serial)
    assert front(result) == front(serial)
    assert result.legal_sampled == serial.legal_sampled


def test_one_shard_two_workers_identical_to_serial(estimator, serial):
    """Fewer shards than workers: the pool forks one worker per shard."""
    bench = get_benchmark("tpchq6")
    obs.reset()
    obs.enable(metrics=True)
    try:
        result = explore(
            bench, estimator, max_points=POINTS, seed=SEED,
            shards=1, workers=2,
        )
        active = obs.metrics().to_dict()["gauges"]["dse.workers.active"]
    finally:
        obs.disable()
        obs.reset()
    assert fingerprint(result) == fingerprint(serial)
    assert active == 1


def test_explore_rejects_bogus_shard_string(estimator):
    bench = get_benchmark("tpchq6")
    for bad in ("turbo", "auto"):
        with pytest.raises(ValueError, match="shards must be"):
            explore(bench, estimator, max_points=12, shards=bad)


def test_default_shards_follow_workers(estimator):
    bench = get_benchmark("tpchq6")
    result = explore(bench, estimator, max_points=12, seed=SEED, workers=2)
    assert result.shards == 2


def test_explore_rejects_bad_workers(estimator):
    bench = get_benchmark("tpchq6")
    for bad in (0, -2):
        with pytest.raises(ValueError, match="workers must be"):
            explore(bench, estimator, max_points=12, workers=bad)


def test_explore_rejects_bad_shards(estimator):
    bench = get_benchmark("tpchq6")
    with pytest.raises(ValueError, match="shards must be"):
        explore(bench, estimator, max_points=12, shards=0)


def test_resume_requires_checkpoint_dir(estimator):
    bench = get_benchmark("tpchq6")
    with pytest.raises(ValueError, match="resume=True requires"):
        explore(bench, estimator, max_points=12, resume=True)


def test_explicit_shards_resume_at_another_worker_count(
    estimator, serial, tmp_path
):
    """A 7-shard sweep written with one worker resumes with two.

    The shard count, not the worker count, fixes the partition, so
    every point is restored and none is re-estimated.
    """
    bench = get_benchmark("tpchq6")
    ckpt = tmp_path / "ckpt"
    explore(
        bench, estimator, max_points=POINTS, seed=SEED, shards=7,
        workers=1, checkpoint_dir=ckpt,
    )
    resumed = explore(
        bench, estimator, max_points=POINTS, seed=SEED, shards=7,
        workers=2, checkpoint_dir=ckpt, resume=True,
    )
    assert resumed.shards == 7
    assert resumed.restored == POINTS
    assert fingerprint(resumed) == fingerprint(serial)
