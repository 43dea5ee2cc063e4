"""Tests for the module-level obs facade and pipeline instrumentation."""

import time

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore
from repro.runtime import pool
from repro.sim import simulate


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with global observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestFacade:
    def test_disabled_by_default(self):
        assert not obs.trace_enabled() and not obs.metrics_enabled()
        assert obs.span("x") is obs.NULL_SPAN

    def test_enable_disable_individual(self):
        obs.enable(trace=True)
        assert obs.trace_enabled() and not obs.metrics_enabled()
        obs.enable(metrics=True)
        assert obs.metrics_enabled()
        obs.enable(metrics=False)
        assert obs.trace_enabled() and not obs.metrics_enabled()
        obs.disable()
        assert not obs.trace_enabled()

    def test_enable_no_args_enables_both(self):
        obs.enable()
        assert obs.trace_enabled() and obs.metrics_enabled()

    def test_timed_records_span_and_histogram(self):
        obs.enable()
        with obs.timed("pass", "pass.latency_s", design="d") as span:
            span.set(cycles=9)
        (span,) = obs.tracer().find("pass")
        assert span.attrs == {"design": "d", "cycles": 9}
        assert obs.histogram("pass.latency_s").count == 1

    def test_timed_metrics_only(self):
        obs.enable(metrics=True)
        with obs.timed("pass", "pass.latency_s"):
            pass
        assert obs.tracer().spans == []
        assert obs.histogram("pass.latency_s").count == 1

    def test_timed_disabled_is_noop_singleton(self):
        assert obs.timed("pass", "h") is obs.NULL_SPAN


class TestPipelineInstrumentation:
    def test_explore_produces_nested_spans_and_counters(
        self, estimator, monkeypatch
    ):
        # The uncached estimator exercises the per-point hot path, whose
        # trace shape (one `estimate` span per point) this test pins down;
        # the cached/batched shape is covered by the test below.
        from repro.estimation import Estimator

        cold = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        monkeypatch.setattr(pool, "PROGRESS_EVERY", 5)
        obs.enable()
        bench = get_benchmark("dotproduct")
        result = explore(bench, cold, max_points=12)
        tracer = obs.tracer()

        (exp,) = tracer.find("explore")
        assert exp.attrs["bench"] == "dotproduct"
        assert exp.attrs["points"] == len(result.points)

        estimates = tracer.find("estimate")
        assert estimates and all(
            s.parent_id == exp.span_id for s in estimates
        )
        for name in ("cycles", "area"):
            spans = tracer.find(name)
            assert len(spans) == len(estimates)
            est_ids = {s.span_id for s in estimates}
            assert all(s.parent_id in est_ids for s in spans)
        assert tracer.find("area.nn"), "NN correction pass not traced"

        snap = obs.metrics().to_dict()
        counts = snap["counters"]
        assert counts["dse.points.sampled"] == result.legal_sampled
        assert (
            counts["dse.points.valid"] + counts["dse.points.unfit"]
            == len(result.points)
        )
        assert counts["estimate.calls"] == len(result.points)
        hist = snap["histograms"]["dse.point_latency_s"]
        assert hist["count"] == len(result.points)
        assert 0 < hist["p50"] <= hist["p95"] <= hist["max"]

        progress = [
            e for e in tracer.instants if e.name == "dse.progress"
        ]
        assert progress and progress[0].attrs["points_per_sec"] > 0

    def test_explore_batched_spans_and_cache_counters(
        self, estimator, monkeypatch
    ):
        """The cached estimator compiles each class once and traces one
        estimate.plan span per evaluated block instead of per-point
        estimate spans, plus estimation.cache.* counters."""
        assert estimator.caches is not None
        estimator.caches.clear()  # session fixture may be warm already
        monkeypatch.setattr(pool, "PROGRESS_EVERY", 5)
        obs.enable()
        bench = get_benchmark("dotproduct")
        result = explore(bench, estimator, max_points=12)
        tracer = obs.tracer()

        (exp,) = tracer.find("explore")
        compiles = tracer.find("estimate.compile")
        plans = tracer.find("estimate.plan")
        assert compiles and plans
        assert all(s.parent_id == exp.span_id for s in compiles + plans)
        for span in compiles:
            assert span.attrs["bench"] == "dotproduct"
            assert span.attrs["nodes"] > 0 and span.attrs["terms"] > 0
        assert {s.attrs["class"] for s in plans} == {
            s.attrs["class"] for s in compiles
        }
        assert sum(s.attrs["n"] for s in plans) == len(result.points)
        # Points are priced without per-design cycle/area passes.
        assert not tracer.find("cycles") and not tracer.find("area.raw")
        # One vectorized NN pass per block, not one per design.
        assert len(tracer.find("area.nn")) == 1

        counts = obs.metrics().to_dict()["counters"]
        assert counts["estimate.calls"] == len(result.points)
        assert counts["estimate.plans.compiled"] == len(compiles)
        assert counts.get("estimation.cache.miss", 0) > 0
        hist = obs.metrics().to_dict()["histograms"]["dse.point_latency_s"]
        assert hist["count"] == len(result.points)

    def test_serial_progress_once_per_thousand_points(self, estimator):
        """Progress is checked once per priced block: a 2,500-point
        single-shard sweep crosses 1,000 and 2,000 exactly once each."""
        obs.enable(trace=True, metrics=True)
        explore(get_benchmark("dotproduct"), estimator, max_points=2_500)
        progress = [
            e.attrs["points"] for e in obs.tracer().instants
            if e.name == "dse.progress"
        ]
        assert pool.PROGRESS_EVERY == 1_000
        assert progress == [1_000, 2_000]
        gauges = obs.metrics().to_dict()["gauges"]
        assert gauges["dse.points_per_sec"] > 0

    def test_simulate_traces_controller_hierarchy(self, estimator):
        obs.enable(trace=True)
        bench = get_benchmark("dotproduct")
        design = bench.build(
            bench.default_dataset(),
            **bench.default_params(bench.default_dataset()),
        )
        sim = simulate(design)
        tracer = obs.tracer()
        (top,) = tracer.find("simulate")
        assert top.attrs["cycles"] == sim.cycles

    def test_disabled_instrumentation_cost_is_tiny(self):
        """The null-path cost per DSE point stays far below 5% of the
        ~1 ms a real estimate takes (acceptance criterion)."""
        obs.disable()
        n = 1000
        hist = obs.histogram("dse.point_latency_s")
        cnt = obs.counter("dse.points.valid")
        start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            with obs.timed("estimate", "estimate.latency_s", design="d"):
                pass
            hist.observe(time.perf_counter() - t0)
            cnt.inc()
        elapsed = time.perf_counter() - start
        # 1000 points at ~1 ms each -> 5% budget is 50 ms; the null path
        # measures in the hundreds of microseconds. Generous CI bound:
        assert elapsed < 0.05
