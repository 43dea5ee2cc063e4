"""Streaming JSONL trace sink."""

import io
import json

from repro.obs.sinks import JsonlStreamWriter
from repro.obs.trace import Tracer


def read_lines(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestJsonlStreamWriter:
    def test_streams_spans_as_they_finish(self):
        buf = io.StringIO()
        tracer = Tracer(enabled=True)
        tracer.attach_stream(JsonlStreamWriter(buf, flush_every=1))
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        docs = read_lines(buf)
        assert [d["name"] for d in docs] == ["inner", "outer"]
        assert docs[0]["attrs"] == {"k": 1}
        assert docs[0]["parent"] == docs[1]["id"]

    def test_streams_instants(self):
        buf = io.StringIO()
        tracer = Tracer(enabled=True)
        tracer.attach_stream(JsonlStreamWriter(buf, flush_every=1))
        tracer.instant("tick", n=3)
        (doc,) = read_lines(buf)
        assert doc["type"] == "instant" and doc["attrs"] == {"n": 3}

    def test_writer_counts_and_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        writer = JsonlStreamWriter(path)
        tracer.attach_stream(writer)
        for _ in range(5):
            with tracer.span("s"):
                pass
        writer.close()
        assert writer.written == 5
        assert len(path.read_text().splitlines()) == 5

    def test_detach_returns_stream(self):
        tracer = Tracer(enabled=True)
        writer = JsonlStreamWriter(io.StringIO(), flush_every=1)
        tracer.attach_stream(writer)
        assert tracer.detach_stream() is writer
        with tracer.span("after"):
            pass
        assert writer.written == 0


class TestObsHelpers:
    def test_stream_to_jsonl_round_trip(self, tmp_path):
        from repro import obs

        path = tmp_path / "stream.jsonl"
        obs.reset()
        obs.enable(trace=True)
        writer = obs.stream_to_jsonl(path)
        try:
            for _ in range(4):
                with obs.span("work"):
                    pass
        finally:
            obs.stop_streaming()
            obs.disable()
        assert writer.written == 4
        docs = [json.loads(l) for l in path.read_text().splitlines()]
        assert all(d["name"] == "work" for d in docs)
        obs.reset()
