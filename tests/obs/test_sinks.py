"""Tests for trace export sinks (repro.obs.sinks)."""

import io
import json

from repro.obs import (
    JsonlStreamWriter,
    Tracer,
    span_summary,
    to_chrome_trace,
    write_chrome_trace,
)


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


class TestChromeTrace:
    def test_round_trips_through_json(self, tmp_path):
        tracer = traced()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        assert doc == to_chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"

    def test_span_events_are_complete_events(self):
        doc = to_chrome_trace(traced())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {
            "explore", "estimate", "cycles", "area"
        }
        for ev in spans:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["pid"] == 1 and ev["tid"] >= 1

    def test_nested_span_timestamps_contained_in_parent(self):
        doc = to_chrome_trace(traced())
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        outer, inner = by_name["explore"], by_name["cycles"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_instants_and_metadata(self):
        doc = to_chrome_trace(traced())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["name"] == "dse.progress"
        assert instants[0]["args"]["points"] == 1000
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "repro"

    def test_attrs_coerced_to_jsonable(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x", params={"tile": 96}, obj=object(), seq=(1, 2)):
            pass
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["params"] == {"tile": 96}
        assert isinstance(args["obj"], str)
        assert args["seq"] == [1, 2]

    def test_accepts_open_file(self):
        buf = io.StringIO()
        write_chrome_trace(traced(), buf)
        assert json.loads(buf.getvalue())["traceEvents"]


class TestJsonl:
    def test_every_line_parses(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlStreamWriter(str(path)) as stream:
            traced(stream)
        lines = path.read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        assert len(objs) == 5  # 4 spans + 1 instant
        spans = [o for o in objs if o["type"] == "span"]
        assert all(o["end_s"] >= o["start_s"] for o in spans)
        roots = [o for o in spans if o["parent"] is None]
        assert [o["name"] for o in roots] == ["explore"]
        (instant,) = [o for o in objs if o["type"] == "instant"]
        assert instant["attrs"]["points_per_sec"] == 850.0


class TestSpanSummary:
    def test_table_contains_names_and_counts(self):
        table = span_summary(traced())
        assert "explore" in table and "estimate" in table
        assert "count" in table and "total" in table

    def test_empty_tracer(self):
        assert "no spans recorded" in span_summary(Tracer(enabled=True))
