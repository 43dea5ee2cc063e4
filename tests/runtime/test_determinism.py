"""The engine's headline guarantee: shard/worker counts never change results.

The matrix required by the runtime issue: ``explore(seed=S)`` with
``shards ∈ {1, 2, 7, 16}`` x ``workers ∈ {1, 2}`` must yield identical
sampled-point sets and identical Pareto fronts. Estimates must match
exactly (not approximately): the parallel path runs the same estimator
code on the same points, so even float results are bit-equal.
"""

import pytest

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


@pytest.mark.parametrize("workers", [1, 2])
def test_auto_shards_identical_to_serial(estimator, serial, workers):
    """Cost-model micro-sharding is a scheduling detail, not a result."""
    bench = get_benchmark("tpchq6")
    result = explore(
        bench, estimator, max_points=POINTS, seed=SEED,
        shards="auto", workers=workers,
    )
    assert fingerprint(result) == fingerprint(serial)
    assert front(result) == front(serial)
    assert result.shards > workers  # genuinely micro-sharded


def test_tail_split_identical_to_serial(estimator, serial):
    """One big shard re-split in flight still sweeps the serial set."""
    bench = get_benchmark("tpchq6")
    result = explore(
        bench, estimator, max_points=POINTS, seed=SEED,
        shards=1, workers=2,
    )
    assert fingerprint(result) == fingerprint(serial)
    assert result.requeued >= 2  # the single shard was split into pieces


def test_explore_rejects_bogus_shard_string(estimator):
    bench = get_benchmark("tpchq6")
    with pytest.raises(ValueError, match="shards must be"):
        explore(bench, estimator, max_points=12, shards="turbo")


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


def test_auto_shards_resume_after_another_auto_sweep(
    estimator, serial, tmp_path, monkeypatch
):
    """Resuming an "auto" sweep re-plans the checkpoint's partition even
    after other sweeps in the process moved the cost model's suggestion;
    asking the model again would plan another shard count and fail the
    manifest check with CheckpointError."""
    from repro.runtime.sharding import DEFAULT_COST_MODEL, resolve_shard_count

    monkeypatch.setattr(DEFAULT_COST_MODEL, "_costs", [])
    bench = get_benchmark("tpchq6")
    ckpt = tmp_path / "ckpt"
    first = explore(
        bench, estimator, max_points=POINTS, seed=SEED, shards="auto",
        checkpoint_dir=ckpt,
    )
    # Another sweep in this process with skewed per-shard costs.
    other = get_benchmark("dotproduct")
    explore(other, estimator, max_points=POINTS, seed=SEED, shards="auto")
    for cost in (1e-5, 1e-2) * 8:
        DEFAULT_COST_MODEL.observe(1, cost)
    assert resolve_shard_count("auto", POINTS) != first.shards

    resumed = explore(
        bench, estimator, max_points=POINTS, seed=SEED, shards="auto",
        checkpoint_dir=ckpt, resume=True,
    )
    assert resumed.shards == first.shards
    assert resumed.restored == len(first.points)
    assert fingerprint(resumed) == fingerprint(serial)
