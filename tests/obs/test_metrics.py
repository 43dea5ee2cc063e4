"""Tests for the duration statistics ``--metrics`` prints (repro.obs).

Per span name, the summary gives the distribution of durations: count,
total, mean, exact p50/p95 and max. The table itself is tested in
``test_sinks.py``.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, describe, percentile


class TestHistogram:
    """Duration distributions: :func:`percentile` and :func:`describe`."""

    def test_exact_percentiles(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        s = describe(values)
        assert s["count"] == 100
        assert s["max"] == 100.0
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert s["p50"] == pytest.approx(50.5)
        assert s["p95"] == pytest.approx(95.05)

    def test_percentiles_interleaved_with_observations(self):
        """A summary reflects spans recorded after an earlier summary."""
        tracer = Tracer(enabled=True)
        for _ in range(2):
            with tracer.span("lat"):
                pass
        ((_, first),) = tracer.summary_rows()
        with tracer.span("lat"):
            pass
        ((_, second),) = tracer.summary_rows()
        assert first["count"] == 2 and second["count"] == 3
        assert describe([3.0, 1.0])["max"] == 3.0
        assert describe([3.0, 1.0, 2.0])["p50"] == 2.0  # unsorted input

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
        ordered = sorted(samples)
        values = [percentile(ordered, p) for p in sorted(ps)]
        assert values == sorted(values)
        assert all(ordered[0] <= v <= ordered[-1] for v in values)
        if len(set(samples)) == 1:
            assert set(values) == {samples[0]}
        summary = describe(samples)
        assert summary["p50"] <= summary["p95"] <= summary["max"]

    def test_empty_and_single(self):
        assert percentile([], 95) == 0.0 and describe([])["mean"] == 0.0
        assert describe([])["count"] == 0
        assert percentile([7.0], 50) == 7.0 and describe([7.0])["p95"] == 7.0

    def test_summary_keys(self):
        s = describe([1.0, 3.0])
        assert set(s) == {"count", "total", "mean", "p50", "p95", "max"}
        assert s["count"] == 2 and s["total"] == 4.0 and s["mean"] == 2.0

    def test_thread_safe_observe(self):
        tracer = Tracer(enabled=True)

        def worker():
            for _ in range(1000):
                with tracer.span("lat"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ((name, s),) = tracer.summary_rows()
        assert name == "lat" and s["count"] == 4000

