"""Tests for bottleneck diagnosis and roofline analysis."""

import pytest

from repro.analysis import analyze, diagnose
from repro.ir.graph import total_dram_bytes
from repro.apps import get_benchmark
from repro.sim import simulate


def diagnose_bench(estimator, name, **overrides):
    bench = get_benchmark(name)
    ds = bench.default_dataset()
    params = bench.default_params(ds)
    params.update(overrides)
    design = bench.build(ds, **params)
    return diagnose(design, estimator), bench, ds, design


class TestDiagnose:
    def test_blackscholes_compute_bound(self, estimator):
        diag, *_ = diagnose_bench(estimator, "blackscholes", par=8)
        assert not diag.memory_bound
        assert diag.binding_resource == "alms"
        assert diag.dominant_kind == "compute"

    def test_gemm_compute_dominant(self, estimator):
        diag, *_ = diagnose_bench(estimator, "gemm")
        assert diag.dominant_kind == "compute"
        assert diag.dominant_share > 0.5

    def test_underparallelized_transfer_hint(self, estimator):
        diag, *_ = diagnose_bench(
            estimator, "dotproduct", par_load=4, par_inner=48, tile=24000
        )
        assert diag.dominant_kind == "memory"
        assert any("parallelization" in h or "roofline" in h
                   for h in diag.hints)

    def test_saturated_bandwidth_detected(self, estimator):
        diag, *_ = diagnose_bench(
            estimator, "dotproduct", par_load=64, par_inner=96, tile=48000
        )
        assert diag.memory_bound
        assert diag.bandwidth_utilization > 0.8

    def test_oversized_design_flagged(self, estimator):
        diag, *_ = diagnose_bench(
            estimator, "kmeans", par_dist=96, par_pt=4
        )
        assert any("does not fit" in h for h in diag.hints)

    def test_summary_readable(self, estimator):
        diag, *_ = diagnose_bench(estimator, "gda")
        text = diag.summary()
        assert "binding resource" in text
        assert "hint:" in text

    def test_shares_sum_to_one(self, estimator):
        from repro.analysis.bottleneck import _leaf_shares

        _, bench, ds, design = diagnose_bench(estimator, "tpchq6")
        cycles = estimator.estimate_cycles(design)
        shares = _leaf_shares(design, cycles)
        assert sum(s for _, s in shares) == pytest.approx(1.0)


class TestRoofline:
    def test_total_dram_bytes_counts_trips(self):
        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        nbytes = total_dram_bytes(design)
        assert nbytes == pytest.approx(2 * ds["n"] * 4, rel=0.01)

    def test_gemm_high_intensity(self):
        bench = get_benchmark("gemm")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        point = analyze(design, bench.flops(ds))
        assert point.flops_per_byte > 5.0

    def test_dotproduct_low_intensity(self):
        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        point = analyze(design, bench.flops(ds))
        assert point.flops_per_byte < 1.0

    def test_achieved_below_attainable(self, estimator):
        for name in ("dotproduct", "blackscholes", "gemm"):
            bench = get_benchmark(name)
            ds = bench.default_dataset()
            design = bench.build(ds, **bench.default_params(ds))
            runtime = simulate(design).seconds
            point = analyze(design, bench.flops(ds), runtime)
            assert point.achieved_flops <= point.attainable_flops * 1.1, name
            assert 0 < point.efficiency <= 1.1

    def test_peak_scales_with_parallelism(self):
        bench = get_benchmark("blackscholes")
        ds = bench.default_dataset()
        narrow = bench.build(ds, **{**bench.default_params(ds), "par": 1})
        wide = bench.build(ds, **{**bench.default_params(ds), "par": 8})
        flops = bench.flops(ds)
        assert analyze(wide, flops).peak_flops > 6 * analyze(
            narrow, flops
        ).peak_flops

    def test_cli_analyze(self, estimator):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(["analyze", "gemm"], out=out, estimator=estimator)
        assert code == 0
        assert "roofline" in out.getvalue()
