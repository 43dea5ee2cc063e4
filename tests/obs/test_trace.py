"""Tests for the span tracer (repro.obs.trace)."""

import os
import threading
import time

from repro.obs import NULL_SPAN, Tracer


def contains(outer, inner):
    """Whether ``inner`` ran inside ``outer`` on the same thread."""
    return (
        (outer.pid, outer.thread_id) == (inner.pid, inner.thread_id)
        and outer.start <= inner.start and inner.end <= outer.end
    )


def children(tracer, parent):
    """Spans directly inside ``parent``: contained, with nothing between."""
    inside = [s for s in tracer.spans
              if s is not parent and contains(parent, s)]
    return [s for s in inside
            if not any(o is not s and contains(o, s) for o in inside)]


class TestSpans:
    def test_records_start_end_and_duration(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work"):
            time.sleep(0.002)
        (span,) = tracer.spans
        assert span.name == "work" and span.pid == os.getpid()
        assert span.end > span.start
        assert span.duration >= 0.002

    def test_nesting_by_time_containment(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid2"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert [s.name for s in tracer.spans] == [
            "inner", "mid", "mid2", "outer"
        ]
        assert {s.name for s in children(tracer, by_name["outer"])} == {
            "mid", "mid2"
        }
        assert [s.name for s in children(tracer, by_name["mid"])] == ["inner"]
        assert not contains(by_name["mid"], by_name["mid2"])

    def test_sibling_after_nested_block_is_not_a_child(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.end <= b.start
        assert not contains(a, b) and not contains(b, a)

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer(enabled=True)
        with tracer.span("estimate", bench="gemm") as span:
            span.set(cycles=123, fits=True)
        (span,) = tracer.spans
        assert span.attrs == {"bench": "gemm", "cycles": 123, "fits": True}

    def test_children_query(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("child1"):
                pass
            with tracer.span("child2"):
                pass
        parent = tracer.find("parent")[0]
        assert {s.name for s in children(tracer, parent)} == {
            "child1", "child2"
        }

    def test_span_survives_exceptions(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert tracer.find("boom")[0].end > 0
        # the next span starts after the failed one ended
        with tracer.span("after"):
            pass
        assert not contains(tracer.find("boom")[0], tracer.find("after")[0])

    def test_instants(self):
        tracer = Tracer(enabled=True)
        tracer.instant("progress", points=500)
        (ev,) = tracer.instants
        assert ev.name == "progress" and ev.attrs == {"points": 500}

    def test_reset_clears_everything(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x"):
            tracer.instant("y")
        tracer.reset()
        assert tracer.spans == [] and tracer.instants == []

    def test_summary_rows_aggregate_by_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("hot"):
                pass
        ((name, s),) = tracer.summary_rows()
        assert name == "hot" and s["count"] == 3
        assert s["total"] >= s["mean"] and s["max"] <= s["total"]
        assert s["p50"] <= s["p95"] <= s["max"]


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        ctx = tracer.span("x", a=1)
        assert ctx is NULL_SPAN
        with ctx as span:
            span.set(b=2)  # must not raise
        tracer.instant("y")
        assert tracer.spans == [] and tracer.instants == []

    def test_disabled_overhead_is_negligible(self):
        """A disabled span is one flag check — far under the <5% budget."""
        tracer = Tracer(enabled=False)
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("hot", key="value"):
                pass
        elapsed = time.perf_counter() - start
        # Very generous bound (~5us/span); the real cost is ~0.5us.
        assert elapsed < 1.0


class TestThreadSafety:
    def test_concurrent_spans_keep_per_thread_parents(self):
        tracer = Tracer(enabled=True)
        errors = []

        def worker(tid):
            try:
                for i in range(50):
                    with tracer.span(f"outer-{tid}"):
                        with tracer.span(f"inner-{tid}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tracer.spans) == 4 * 50 * 2
        # Each span finishes right after the spans it contains, so an
        # outer span's inner is the span its thread finished just before.
        last = {}
        for span in tracer.spans:
            key = span.thread_id
            if span.name.startswith("outer-"):
                inner = last[key]
                assert inner.name == "inner-" + span.name.split("-")[1]
                assert contains(span, inner)
            last[key] = span
