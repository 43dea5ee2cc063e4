"""Tests for the module-level obs facade and pipeline instrumentation."""

import os
import re
import time

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore, local_search
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
        assert not obs.trace_enabled()
        assert obs.span("x") is obs.NULL_SPAN

    def test_enable_disable_individual(self):
        """Either flag turns span recording on; false values turn it off."""
        obs.enable(trace=True)
        assert obs.trace_enabled()
        obs.disable()
        assert not obs.trace_enabled()
        obs.enable(metrics=True)
        assert obs.trace_enabled()
        obs.enable(metrics=False)
        assert not obs.trace_enabled()
        obs.enable(trace=False, metrics=True)
        assert obs.trace_enabled()
        obs.enable(trace=False, metrics=False)
        assert not obs.trace_enabled()

    def test_enable_no_args_enables_both(self):
        obs.enable()
        assert obs.trace_enabled()
        with obs.span("x"):
            obs.instant("y")
        assert [s.name for s in obs.tracer().spans] == ["x"]
        assert [e.name for e in obs.tracer().instants] == ["y"]

    def test_span_records_duration_and_attrs(self):
        obs.enable()
        with obs.span("pass", design="d") as span:
            span.set(cycles=9)
        (span,) = obs.tracer().find("pass")
        assert span.attrs == {"design": "d", "cycles": 9}
        ((name, summary),) = obs.tracer().summary_rows()
        assert name == "pass" and summary["count"] == 1
        assert summary["total"] == span.duration

    def test_metrics_flag_records_spans(self):
        """``--metrics`` reads the same spans a trace file gets."""
        obs.enable(metrics=True)
        with obs.span("pass"):
            pass
        assert [s.name for s in obs.tracer().spans] == ["pass"]
        assert "pass" in obs.span_summary(obs.tracer())


def inside(outer, inner):
    """Whether ``inner`` ran within ``outer`` on the same thread."""
    return (
        (outer.pid, outer.thread_id) == (inner.pid, inner.thread_id)
        and outer.start <= inner.start and inner.end <= outer.end
    )


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
        assert exp.attrs["sampled"] == result.legal_sampled
        assert exp.attrs["valid"] + exp.attrs["unfit"] == len(result.points)
        assert exp.attrs["restored"] == 0
        assert exp.attrs["illegal"] == result.legal_sampled - len(
            result.points
        )

        # One estimate span per point, each with its passes inside it.
        estimates = tracer.find("estimate")
        assert len(estimates) == len(result.points)
        assert all(inside(exp, s) for s in estimates)
        for name in ("cycles", "area"):
            spans = tracer.find(name)
            assert len(spans) == len(estimates)
            assert all(any(inside(e, s) for e in estimates) for s in spans)
        assert tracer.find("area.nn"), "NN correction pass not traced"
        assert all("batch" not in s.attrs for s in tracer.find("area.nn"))

        latency = dict(tracer.summary_rows())["estimate"]
        assert latency["count"] == len(result.points)
        assert 0 < latency["p50"] <= latency["p95"] <= latency["max"]

        progress = [
            e for e in tracer.instants if e.name == "dse.progress"
        ]
        assert progress and progress[0].attrs["points_per_sec"] > 0

    def test_explore_batched_spans_and_cache_counters(
        self, estimator, monkeypatch
    ):
        """The cached estimator compiles the benchmark's one plan and
        traces one estimate.plan span per evaluated block instead of
        per-point estimate spans; the cache statistics stay on the
        caches."""
        assert estimator.caches is not None
        estimator.caches.clear()  # session fixture may be warm already
        misses = estimator.caches.template.misses
        monkeypatch.setattr(pool, "PROGRESS_EVERY", 5)
        obs.enable()
        bench = get_benchmark("dotproduct")
        result = explore(bench, estimator, max_points=12)
        tracer = obs.tracer()

        (exp,) = tracer.find("explore")
        (compile_,) = tracer.find("estimate.compile")
        plans = tracer.find("estimate.plan")
        assert plans
        assert all(inside(exp, s) for s in [compile_] + plans)
        assert compile_.attrs["bench"] == "dotproduct"
        assert compile_.attrs["nodes"] > 0 and compile_.attrs["terms"] > 0
        assert compile_.attrs["lines"] > 0
        assert "refused" not in compile_.attrs
        assert sum(s.attrs["n"] for s in plans) == len(result.points)
        # Points are priced without per-design cycle/area passes.
        assert not tracer.find("cycles") and not tracer.find("area.raw")
        assert not tracer.find("estimate")
        # One vectorized NN pass per block, not one per design.
        (nn,) = tracer.find("area.nn")
        assert nn.attrs["batch"] == len(result.points)
        assert estimator.caches.template.misses > misses

    def test_one_search_span_per_local_search(self, estimator):
        """Each guided search is one ``search`` span: its settings when it
        opens, its evaluations and restarts when it closes, and the
        pricing it caused inside it."""
        bench = get_benchmark("tpchq6")
        obs.enable()
        results = [local_search(bench, estimator, budget=budget, seed=seed)
                   for budget, seed in ((40, 3), (25, 8))]
        tracer = obs.tracer()
        spans = tracer.find("search")
        assert [s.attrs for s in spans] == [
            {"bench": "tpchq6", "budget": budget, "seed": seed,
             "evaluations": r.evaluations, "restarts": r.restarts}
            for r, (budget, seed) in zip(results, ((40, 3), (25, 8)))
        ]
        assert all(s.attrs["evaluations"] > 0 for s in spans)
        for name in ("estimate.plan", "area.nn"):
            assert all(any(inside(s, p) for s in spans)
                       for p in tracer.find(name))
        summary = obs.span_summary(tracer)
        total = sum(r.evaluations for r in results)
        assert re.search(rf"search\.evaluations +{total:,}\n", summary)
        assert re.search(r"search\.budget +25\n", summary)

    def test_serial_progress_once_per_thousand_points(self, estimator):
        """Progress is checked once per priced block: a 2,500-point
        single-shard sweep crosses 1,000 and 2,000 exactly once each."""
        obs.enable(trace=True, metrics=True)
        explore(get_benchmark("dotproduct"), estimator, max_points=2_500)
        progress = [
            e.attrs for e in obs.tracer().instants
            if e.name == "dse.progress"
        ]
        assert pool.PROGRESS_EVERY == 1_000
        assert [e["points"] for e in progress] == [1_000, 2_000]
        assert all(e["points_per_sec"] > 0 for e in progress)

    @pytest.mark.skipif(not pool.fork_available(), reason="needs fork")
    def test_forked_workers_record_like_serial(self, estimator):
        """Worker spans reach the parent's tracer, tagged with worker pids."""
        bench = get_benchmark("dotproduct")
        estimator.caches.clear()  # every point priced, none served cached
        obs.enable()
        result = explore(bench, estimator, max_points=600, seed=3,
                         workers=2, shards=4)
        tracer = obs.tracer()
        plan_pids = {s.pid for s in tracer.find("estimate.plan")}
        assert len(plan_pids - {os.getpid()}) >= 2
        assert sum(
            s.attrs["batch"] for s in tracer.find("area.nn")
        ) == len(result.points)
        (exp,) = tracer.find("explore")
        assert exp.pid == os.getpid()
        assert exp.attrs["active_workers"] == len(exp.attrs["utilization"])
        assert 1 <= exp.attrs["active_workers"] <= 2
        assert all(0.0 <= u <= 1.0 for u in exp.attrs["utilization"])
        forked_names = set(tracer.by_name())
        obs.reset()
        explore(bench, estimator, max_points=600, seed=3)
        assert forked_names == set(obs.tracer().by_name())

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
        start = time.perf_counter()
        for _ in range(n):
            with obs.span("estimate", design="d"):
                with obs.span("cycles", design="d"):
                    pass
        elapsed = time.perf_counter() - start
        # 1000 points at ~1 ms each -> 5% budget is 50 ms; the null path
        # measures in the hundreds of microseconds. Generous CI bound:
        assert elapsed < 0.05
