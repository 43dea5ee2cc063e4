"""Tests for counters, gauges, and histograms (repro.obs.metrics)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import NULL_COUNTER, NULL_HISTOGRAM


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("points")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x").inc()
        reg.counter("x").inc()
        assert reg.counter("x").value == 2


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("rate")
        g.set(10.0)
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_exact_percentiles(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.max == 100.0
        assert h.min == 1.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentiles_interleaved_with_observations(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        h.observe(3.0)
        h.observe(1.0)
        assert h.percentile(100) == 3.0
        h.observe(2.0)  # arrives after a percentile query re-sorted
        assert h.percentile(50) == 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=50),
            st.builds(
                lambda v, n: [v] * n,
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(min_value=1, max_value=50),
            ),
        ),
        ps=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=2, max_size=8),
    )
    def test_percentile_monotone_and_bounded(self, samples, ps):
        """Percentiles never decrease in p and stay within [min, max]."""
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        for v in samples:
            h.observe(v)
        values = [h.percentile(p) for p in sorted(ps)]
        assert values == sorted(values)
        assert all(h.min <= v <= h.max for v in values)
        if len(set(samples)) == 1:
            assert set(values) == {samples[0]}
        summary = h.summary()
        assert summary["p50"] <= summary["p95"] <= summary["max"]

    def test_empty_and_single(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        assert h.percentile(95) == 0.0 and h.mean == 0.0
        h.observe(7.0)
        assert h.percentile(50) == 7.0 and h.summary()["p95"] == 7.0

    def test_summary_keys(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        h.observe(1.0)
        h.observe(3.0)
        s = h.summary()
        assert set(s) == {"count", "total", "mean", "p50", "p95", "max"}
        assert s["count"] == 2 and s["total"] == 4.0 and s["mean"] == 2.0

    def test_thread_safe_observe(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")

        def worker():
            for i in range(1000):
                h.observe(float(i))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestRegistry:
    def test_disabled_returns_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.histogram("b") is NULL_HISTOGRAM
        reg.counter("a").inc()
        reg.histogram("b").observe(1.0)
        reg.gauge("c").set(2.0)
        assert not reg
        assert reg.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("points.valid").inc(3)
        reg.gauge("rate").set(1.5)
        reg.histogram("lat").observe(0.25)
        snap = reg.to_dict()
        assert snap["counters"] == {"points.valid": 3}
        assert snap["gauges"] == {"rate": 1.5}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_summary_table_mentions_instruments(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("dse.points.valid").inc(42)
        reg.histogram("dse.point_latency_s").observe(0.001)
        table = reg.summary_table()
        assert "dse.points.valid" in table and "42" in table
        assert "dse.point_latency_s" in table
        assert "p95" in table

    def test_summary_table_empty(self):
        reg = MetricsRegistry(enabled=True)
        assert "no metrics recorded" in reg.summary_table()

    def test_reset(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("a").inc()
        assert reg
        reg.reset()
        assert not reg
        assert reg.counter("a").value == 0
