"""Tier-1 guards for the paper's result *shapes* at a small budget.

``benchmarks/`` regenerates the full tables and figures on demand; these
checks keep the orderings they report from drifting while the suite
stays green: Table III's error bands, Figure 5's panel claims, Figure
6's speedup ordering and Table IV's orders-of-magnitude gap between the
estimator and an HLS-style tool. Table III, Table IV and Figure 6 run
through the same :mod:`repro.report` functions as ``repro report`` and
the benches; only the budgets differ.
"""

import numpy as np
import pytest

from repro.apps import all_benchmarks
from repro.dse import explore
from repro.report import best_speedup, table3_errors, table4_seconds

TABLE3_POINTS = 300
FIG5_POINTS = 1200
FIG6_POINTS = 300


@pytest.fixture(scope="module")
def table3_average(estimator):
    """Mean absolute error (%) over five Pareto points per benchmark,
    averaged across benchmarks, per resource."""
    rows = []
    for bench in all_benchmarks():
        errs = table3_errors(bench, estimator, TABLE3_POINTS)
        assert errs is not None, f"no Pareto points for {bench.name}"
        rows.append(errs)
    return {k: float(np.mean([row[k] for row in rows])) for k in rows[0]}


def test_table3_error_bands(table3_average):
    """Averages in the paper's band (4.8% ALMs, 12.3% BRAM, 6.1% runtime)."""
    assert table3_average["alm"] < 10.0
    assert table3_average["runtime"] < 10.0
    assert table3_average["bram"] < 25.0


def test_table3_bram_is_noisiest(table3_average):
    assert table3_average["bram"] > table3_average["alm"]


@pytest.fixture(scope="module")
def figure5(estimator):
    """One Figure 5 sweep per benchmark."""
    return {
        bench.name: explore(bench, estimator, max_points=FIG5_POINTS, seed=29)
        for bench in all_benchmarks()
    }


def test_figure5_gemm_pareto_fills_bram(figure5, estimator):
    """The fastest gemm Pareto designs maximize on-chip locality."""
    res = figure5["gemm"]
    blocks = estimator.board.device.bram_blocks
    front = sorted(res.pareto, key=lambda p: p.cycles)[:5]
    best_bram = max(p.estimate.brams / blocks for p in front)
    median = float(
        np.median([p.estimate.brams / blocks for p in res.valid_points])
    )
    assert best_bram > median


def test_figure5_dotproduct_metapipe_dominates_sequential(figure5):
    res = figure5["dotproduct"]
    mp = [p.cycles for p in res.valid_points if p.params["metapipe"]]
    seq = [p.cycles for p in res.valid_points if not p.params["metapipe"]]
    assert min(mp) < min(seq)


def test_figure5_outerprod_best_avoids_overlapping_transfers(figure5):
    """DRAM contention: the fastest designs do not overlap loads/stores."""
    best = sorted(figure5["outerprod"].valid_points, key=lambda p: p.cycles)
    assert np.mean([
        not p.params["mp_inner"] or not p.params["mp_outer"]
        for p in best[:10]
    ]) >= 0.5


def test_figure5_blackscholes_alm_bound(figure5):
    best = figure5["blackscholes"].best
    util = best.estimate.utilization()
    assert util["alms"] == max(util.values())


def test_figure5_kmeans_invalid_region_exists(figure5):
    assert any(not p.valid for p in figure5["kmeans"].points)


def test_figure5_tpchq6_performance_saturates(figure5):
    """Bandwidth plateau: the fastest quartile spans a wide ALM range."""
    valid = figure5["tpchq6"].valid_points
    q1 = sorted(p.cycles for p in valid)[len(valid) // 4]
    alms = [p.estimate.alms for p in valid if p.cycles <= q1]
    assert max(alms) > 1.5 * min(alms)


@pytest.fixture(scope="module")
def speedups(estimator):
    """Best-design speedup over the modeled CPU, per benchmark."""
    out = {}
    for bench in all_benchmarks():
        found = best_speedup(bench, estimator, FIG6_POINTS)
        assert found is not None, f"no valid design for {bench.name}"
        out[bench.name] = found[0]
    return out


def test_figure6_gemm_lowest_and_loses(speedups):
    assert min(speedups, key=speedups.get) == "gemm"
    assert speedups["gemm"] < 1.0


def test_figure6_blackscholes_highest(speedups):
    assert max(speedups, key=speedups.get) == "blackscholes"


def test_table4_estimator_beats_hls_restricted_beats_full(estimator):
    """Per-design estimate << HLS-style restricted << full (gda space)."""
    seconds = table4_seconds(estimator, 12, 6, 2)
    # The gaps measured ~14x and ~40x on 2 vCPUs; assert far inside them.
    assert seconds["hls_restricted_s"] > 3 * seconds["ours_s"]
    assert seconds["hls_full_s"] > 10 * seconds["hls_restricted_s"]
