"""Golden estimates: the per-point oracle path pinned for all of Table II.

``tests/golden/estimates.json`` holds, for every Table II benchmark, a
seeded sample of parameter points on the default dataset and the
oracle's (cycles, ALMs, DSPs, BRAMs) for each, or ``illegal`` for points
whose IR raises :class:`~repro.ir.IRError`. Any change to the estimator,
the IR, or the benchmarks that moves a single estimate fails here.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python -m tests.estimation.test_golden_estimates
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.apps import all_benchmarks
from repro.estimation import Estimator
from repro.ir import IRError
from repro.target import MAIA

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "estimates.json"
SEED = 2016
POINTS = 150


def sample_points(bench):
    """The seeded sample of ``bench``'s default-dataset space."""
    dataset = bench.default_dataset()
    return bench.param_space(dataset).sample(random.Random(SEED), POINTS)


def params_digest(points) -> str:
    """SHA-256 of the sampled parameter list."""
    return hashlib.sha256(
        json.dumps(points, sort_keys=True).encode()
    ).hexdigest()


def oracle_row(bench, estimator: Estimator, params) -> list:
    """``[cycles, alms, dsps, brams, illegal]`` from build + estimate."""
    try:
        design = bench.build(bench.default_dataset(), **params)
    except IRError:
        return [None, None, None, None, True]
    est = estimator.estimate(design)
    return [est.cycles, est.alms, est.dsps, est.brams, False]


def golden_doc(estimator: Estimator) -> dict:
    """The golden document as computed by ``estimator``'s oracle path."""
    benches = {}
    for bench in all_benchmarks():
        points = sample_points(bench)
        benches[bench.name] = {
            "params_sha256": params_digest(points),
            "rows": [oracle_row(bench, estimator, p) for p in points],
        }
    return {
        "seed": SEED,
        "points": POINTS,
        "fields": ["cycles", "alms", "dsps", "brams", "illegal"],
        "benchmarks": benches,
    }


def load_golden() -> dict:
    """The committed golden document."""
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cold(estimator) -> Estimator:
    """The uncached oracle sharing the session estimator's models."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, cache=False,
    )


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_oracle_matches_golden(bench, cold):
    golden = load_golden()["benchmarks"][bench.name]
    points = sample_points(bench)
    assert params_digest(points) == golden["params_sha256"]
    rows = [oracle_row(bench, cold, p) for p in points]
    mismatched = [
        (p, want, got)
        for p, want, got in zip(points, golden["rows"], rows)
        if want != got
    ]
    assert not mismatched, mismatched[:3]


if __name__ == "__main__":
    doc = golden_doc(Estimator(MAIA, training_samples=120, seed=7, cache=False))
    GOLDEN_PATH.write_text(json.dumps(doc) + "\n")
    print(f"wrote {GOLDEN_PATH}")
