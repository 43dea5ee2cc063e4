"""Tests for trace export sinks (repro.obs.sinks)."""

import copy
import json
import multiprocessing
import os

import pytest

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
            assert ev["pid"] == os.getpid() and ev["tid"] >= 1

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
            "name": "process_name", "ph": "M", "pid": os.getpid(), "tid": 0,
            "args": {"name": "repro"},
        }
        instants = [e for e in doc if e["ph"] == "i"]
        assert instants[0]["name"] == "dse.progress"
        assert instants[0]["args"]["points"] == 1000
        assert instants[0]["args"]["points_per_sec"] == 850.0
        assert instants[0]["s"] == "t" and instants[0]["tid"] >= 1
        assert instants[0]["pid"] == os.getpid()

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

    def test_adopted_events_are_counted_not_rewritten(self, tmp_path):
        """A forked worker streams through its copy of the writer; the
        parent keeps the drained events and counts them, writing none."""
        path = tmp_path / "trace.json"
        writer = ChromeTraceWriter(path)
        parent = Tracer(enabled=True)
        parent.attach_stream(writer)
        worker = Tracer(enabled=True)
        worker.attach_stream(copy.copy(writer))  # shares the open file
        with worker.span("estimate.plan", n=32):
            pass
        worker.instant("tick")
        parent.adopt(*worker.drain())
        assert worker.spans == [] and worker.instants == []
        with parent.span("explore"):
            pass
        writer.close()
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc[1:]] == [
            "estimate.plan", "tick", "explore"
        ]
        assert writer.written == len(doc) == 4
        assert [s.name for s in parent.spans] == ["estimate.plan", "explore"]
        assert [e.name for e in parent.instants] == ["tick"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork",
    )
    def test_forked_writers_never_tear_a_line(self, tmp_path):
        """More writer processes than cores, each appending large events
        to the inherited file: every event lands whole, exactly once."""
        path = tmp_path / "trace.json"
        writer = ChromeTraceWriter(path)
        tracer = Tracer(enabled=True)
        tracer.attach_stream(writer)
        payload = "x" * 20_000  # several pages per write

        def record(worker):
            for i in range(40):
                tracer.instant("tick", worker=worker, i=i, payload=payload)

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=record, args=(w,)) for w in range(6)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        writer.close()
        doc = json.loads(path.read_text())
        ticks = [(e["args"]["worker"], e["args"]["i"]) for e in doc[1:]]
        assert sorted(ticks) == [(w, i) for w in range(6) for i in range(40)]
        assert all(e["args"]["payload"] == payload for e in doc[1:])
        assert len({e["pid"] for e in doc[1:]}) == 6

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

    def test_attribute_totals(self):
        """Numeric attributes are totalled per span or instant name."""
        tracer = Tracer(enabled=True)
        with tracer.span("explore", valid=42, bench="gemm"):
            with tracer.span("area.nn", batch=30, fits=True, share=0.25):
                pass
            with tracer.span("area.nn", batch=12, share=0.25):
                pass
        tracer.instant("dse.progress", points=1000)
        table = span_summary(tracer)
        rows = {line.split()[0]: line.split() for line in table.splitlines()}
        assert rows["area.nn"][1] == "2" and rows["explore"][1] == "1"
        assert "p50" in table and "p95" in table
        assert rows["area.nn.batch"][1] == "42"
        assert rows["area.nn.share"][1] == "0.500"
        assert rows["explore.valid"][1] == "42"
        assert rows["dse.progress.points"][1] == "1,000"
        # Strings and booleans are not totalled.
        assert "explore.bench" not in rows and "area.nn.fits" not in rows

    def test_settings_and_instants_show_their_last_value(self):
        """Seeds, worker counts, running counts, rates and shard ids mean
        nothing summed: the summary shows their last value. What each
        shard counted is still totalled."""
        tracer = Tracer(enabled=True)
        for seed in (1, 5):
            with tracer.span("explore", seed=seed, workers=2, budget=200,
                             shards=2, valid=10):
                pass
        with tracer.span("estimator.train", samples=200):
            pass
        for points in (1000, 2000, 3000):
            tracer.instant("dse.progress", points=points,
                           points_per_sec=850.0)
        for shard in range(4):
            tracer.instant("dse.shard.done", shard=shard, points=750,
                           estimated=700 + shard, restored=50 - shard,
                           points_per_sec=900.0 + shard,
                           completed_shards=shard + 1, total_shards=4)
        table = span_summary(tracer)
        rows = {line.split()[0]: line.split() for line in table.splitlines()}
        assert rows["explore.valid"][1] == "20"
        assert rows["explore.seed"][1] == "5"
        assert rows["explore.workers"][1] == "2"
        assert rows["explore.budget"][1] == "200"
        assert rows["explore.shards"][1] == "2"
        assert rows["estimator.train.samples"][1] == "200"
        assert rows["dse.progress.points"][1] == "3,000"
        assert rows["dse.progress.points_per_sec"][1] == "850.000"
        assert rows["dse.shard.done.shard"][1] == "3"
        assert rows["dse.shard.done.points"][1] == "3,000"
        assert rows["dse.shard.done.estimated"][1] == "2,806"
        assert rows["dse.shard.done.restored"][1] == "194"
        assert rows["dse.shard.done.points_per_sec"][1] == "903.000"
        assert rows["dse.shard.done.completed_shards"][1] == "4"
        assert rows["dse.shard.done.total_shards"][1] == "4"
        assert table.index("attribute totals") < table.index("last values")
