"""Table III: average absolute estimation error per benchmark.

For each Table II benchmark: explore the design space, select five
Pareto-optimal points (as the paper does), "synthesize and run" each on the
substrate, and compare the estimator's ALM / DSP / BRAM / runtime numbers
against the post-place-and-route report and simulated execution.

Paper values: 4.8% ALMs, 7.5% DSPs, 12.3% BRAM, 6.1% runtime on average;
worst case gemm (12.7% ALMs, 18.4% runtime).
"""

import numpy as np
import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.report import PAPER_TABLE3, table3_errors

from conftest import DSE_POINTS, write_result


@pytest.fixture(scope="module")
def table3(estimator):
    out = {}
    for bench in all_benchmarks():
        errs = table3_errors(bench, estimator, max(DSE_POINTS // 4, 200))
        assert errs is not None, f"no Pareto points for {bench.name}"
        out[bench.name] = errs
    return out


def test_table3_rows(table3, results_dir):
    lines = [
        f"{'Benchmark':14s} {'ALMs':>7s} {'DSPs':>7s} {'BRAM':>7s} "
        f"{'Runtime':>8s}   (paper: ALM/DSP/BRAM/runtime)"
    ]
    for name, errs in table3.items():
        p = PAPER_TABLE3[name]
        lines.append(
            f"{name:14s} {errs['alm']:6.1f}% {errs['dsp']:6.1f}% "
            f"{errs['bram']:6.1f}% {errs['runtime']:7.1f}%   "
            f"({p[0]}/{p[1]}/{p[2]}/{p[3]})"
        )
    avg = {
        k: float(np.mean([errs[k] for errs in table3.values()]))
        for k in ("alm", "dsp", "bram", "runtime")
    }
    lines.append(
        f"{'Average':14s} {avg['alm']:6.1f}% {avg['dsp']:6.1f}% "
        f"{avg['bram']:6.1f}% {avg['runtime']:7.1f}%   "
        "(4.8/7.5/12.3/6.1)"
    )
    write_result(
        results_dir / "table3.txt",
        "Table III — average absolute estimation error",
        lines,
    )
    # Shape claims: averages in the same band as the paper.
    assert avg["alm"] < 10.0
    assert avg["runtime"] < 10.0
    assert avg["bram"] < 25.0
    # BRAM is the noisiest resource, as in the paper.
    assert avg["bram"] > avg["alm"]


def test_bench_estimate_one_point(benchmark, estimator):
    """pytest-benchmark: the estimator call Table III depends on."""
    bench = get_benchmark("gda")
    ds = bench.default_dataset()
    design = bench.build(ds, **bench.default_params(ds))
    result = benchmark(estimator.estimate, design)
    assert result.cycles > 0
