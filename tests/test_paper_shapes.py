"""Tier-1 guards for the paper's result *shapes* at a small budget.

``benchmarks/`` regenerates the full tables and figures on demand; these
checks keep the orderings they report from drifting while the suite
stays green: Figure 6's speedup ordering and Table IV's
orders-of-magnitude gap between the estimator and an HLS-style tool.
"""

import random
import time

import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.dse import explore
from repro.hls import HLSExplosionError, HLSTool
from repro.sim import simulate

FIG6_POINTS = 300


@pytest.fixture(scope="module")
def speedups(estimator):
    """Best-design speedup over the modeled CPU, per benchmark."""
    out = {}
    for bench in all_benchmarks():
        result = explore(bench, estimator, max_points=FIG6_POINTS, seed=31)
        assert result.best is not None, f"no valid design for {bench.name}"
        design = bench.build(result.dataset, **result.best.params)
        out[bench.name] = (
            bench.cpu_time(result.dataset) / simulate(design).seconds
        )
    return out


def test_figure6_gemm_lowest_and_loses(speedups):
    assert min(speedups, key=speedups.get) == "gemm"
    assert speedups["gemm"] < 1.0


def test_figure6_blackscholes_highest(speedups):
    assert max(speedups, key=speedups.get) == "blackscholes"


def _seconds_per_design(fn, points):
    start = time.perf_counter()
    for params in points:
        fn(params)
    return (time.perf_counter() - start) / len(points)


def test_table4_estimator_beats_hls_restricted_beats_full(estimator):
    """Per-design estimate << HLS-style restricted << full (gda space)."""
    bench = get_benchmark("gda")
    ds = bench.default_dataset()
    points = bench.param_space(ds).sample(random.Random(21), 12)
    tool = HLSTool()

    def hls(pipeline_outer):
        def run(params):
            try:
                tool.estimate(bench.build(ds, **params), pipeline_outer)
            except HLSExplosionError:
                pass  # the real tool would grind on; the model caps it
        return run

    ours = _seconds_per_design(
        lambda p: estimator.estimate(bench.build(ds, **p)), points
    )
    restricted = _seconds_per_design(hls(False), points[:6])
    full = _seconds_per_design(hls(True), points[:2])
    # The gaps measured ~14x and ~40x on 2 vCPUs; assert far inside them.
    assert restricted > 3 * ours
    assert full > 10 * restricted
