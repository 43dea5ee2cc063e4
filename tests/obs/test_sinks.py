"""Tests for trace export sinks (repro.obs.sinks)."""

import json

from repro import obs
from repro.obs import ChromeTraceWriter, Tracer, span_summary


def traced(stream=None):
    tracer = Tracer(enabled=True)
    if stream is not None:
        tracer.attach_stream(stream)
    with tracer.span("explore", bench="gemm"):
        with tracer.span("estimate", design="gemm"):
            with tracer.span("cycles"):
                pass
            with tracer.span("area"):
                pass
        tracer.instant("dse.progress", points=1000, points_per_sec=850.0)
    return tracer


def written_trace(tmp_path, record=traced):
    """Record through a writer, close it, and load the file."""
    path = tmp_path / "trace.json"
    writer = ChromeTraceWriter(path)
    tracer = record(writer)
    writer.close()
    return tracer, json.loads(path.read_text())


def partial(path):
    """An unclosed trace file completed the way a viewer does."""
    return json.loads(path.read_text() + "]")


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        tracer, doc = written_trace(tmp_path)
        assert isinstance(doc, list)
        assert [e["name"] for e in doc if e["ph"] == "X"] == [
            s.name for s in tracer.spans
        ]
        assert [e["name"] for e in doc if e["ph"] == "i"] == [
            ev.name for ev in tracer.instants
        ]
        assert len(doc) == 1 + len(tracer.spans) + len(tracer.instants)

    def test_span_events_are_complete_events(self, tmp_path):
        tracer, doc = written_trace(tmp_path)
        spans = [e for e in doc if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {
            "explore", "estimate", "cycles", "area"
        }
        for ev, span in zip(spans, tracer.spans):
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["ts"] == span.start * 1e6
            assert ev["dur"] == span.duration * 1e6
            assert ev["pid"] == 1 and ev["tid"] >= 1

    def test_nested_span_timestamps_contained_in_parent(self, tmp_path):
        _, doc = written_trace(tmp_path)
        by_name = {e["name"]: e for e in doc if e["ph"] == "X"}
        outer, inner = by_name["explore"], by_name["cycles"]
        assert outer["tid"] == inner["tid"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_instants_and_metadata(self, tmp_path):
        _, doc = written_trace(tmp_path)
        assert doc[0] == {
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "repro"},
        }
        instants = [e for e in doc if e["ph"] == "i"]
        assert instants[0]["name"] == "dse.progress"
        assert instants[0]["args"]["points"] == 1000
        assert instants[0]["args"]["points_per_sec"] == 850.0
        assert instants[0]["s"] == "t" and instants[0]["tid"] >= 1

    def test_attrs_coerced_to_jsonable(self, tmp_path):
        def record(stream):
            tracer = Tracer(enabled=True)
            tracer.attach_stream(stream)
            with tracer.span("x", params={"tile": 96}, obj=object(),
                             seq=(1, 2)):
                pass
            return tracer

        _, doc = written_trace(tmp_path, record)
        args = [e for e in doc if e["ph"] == "X"][0]["args"]
        assert args["params"] == {"tile": 96}
        assert isinstance(args["obj"], str)
        assert args["seq"] == [1, 2]


class TestStreaming:
    def test_streams_spans_as_they_finish(self, tmp_path):
        """Before close, the file plus ``]`` holds every finished span."""
        path = tmp_path / "trace.json"
        writer = ChromeTraceWriter(path)
        tracer = Tracer(enabled=True)
        tracer.attach_stream(writer)
        assert [e["ph"] for e in partial(path)] == ["M"]
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
            inner_only = partial(path)
            tracer.instant("tick", n=3)
        events = partial(path)
        writer.close()
        assert [e["name"] for e in inner_only[1:]] == ["inner"]
        assert inner_only[1]["args"] == {"k": 1}
        assert [e["name"] for e in events[1:]] == ["inner", "tick", "outer"]
        assert events == json.loads(path.read_text())

    def test_writer_counts_and_close(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = Tracer(enabled=True)
        writer = ChromeTraceWriter(path)
        tracer.attach_stream(writer)
        for _ in range(5):
            with tracer.span("s"):
                pass
        writer.close()
        writer.close()  # idempotent: one closing bracket
        assert writer.written == 6  # metadata + 5 spans
        assert len(json.loads(path.read_text())) == 6

    def test_detach_returns_stream(self, tmp_path):
        tracer = Tracer(enabled=True)
        writer = ChromeTraceWriter(tmp_path / "trace.json")
        tracer.attach_stream(writer)
        assert tracer.detach_stream() is writer
        with tracer.span("after"):
            pass
        writer.close()
        assert writer.written == 1
        assert len(tracer.spans) == 1  # still kept in memory

    def test_stream_trace_round_trip(self, tmp_path):
        path = tmp_path / "stream.json"
        obs.reset()
        obs.enable(trace=True)
        writer = obs.stream_trace(path)
        try:
            for _ in range(4):
                with obs.span("work"):
                    pass
        finally:
            obs.stop_trace()
            obs.disable()
        assert writer.written == 5
        assert obs.tracer().detach_stream() is None
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc[1:]] == ["work"] * 4
        obs.stop_trace()  # nothing attached: a no-op
        obs.reset()


class TestSpanSummary:
    def test_table_contains_names_and_counts(self):
        table = span_summary(traced())
        assert "explore" in table and "estimate" in table
        assert "count" in table and "total" in table

    def test_empty_tracer(self):
        assert "no spans recorded" in span_summary(Tracer(enabled=True))
