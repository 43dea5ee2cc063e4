"""Simulated-time Chrome trace (repro.sim.Timeline.to_chrome_trace).

Unlike the wall-clock tracer sinks, this trace draws the laid-out
timeline of the cycle simulator: the modeled hardware schedule, one
slice per controller, 1 cycle = 1 µs tick.
"""

import io
import json
import re

from repro.apps import get_benchmark
from repro.cli import main
from repro.sim import Interval, Timeline, build_timeline, simulate
from repro.sim.executor import SEQ_STAGE_HANDSHAKE

from ..sim.test_timeline import two_stage


def slices(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


def by_name(doc):
    return {e["name"]: e for e in slices(doc)}


def dotproduct(metapipe=True):
    bench = get_benchmark("dotproduct")
    return bench.build({"n": 65536}, tile=4096, par_load=8, par_inner=8,
                       metapipe=metapipe)


class TestSequentialLayout:
    def test_children_back_to_back(self):
        ev = by_name(build_timeline(two_stage(metapipe=False)).to_chrome_trace())
        load, work = ev["load"], ev["work"]
        assert work["ts"] == load["ts"] + load["dur"] + SEQ_STAGE_HANDSHAKE
        assert load["tid"] == work["tid"]

    def test_durations_are_cycles_not_wall_clock(self):
        design = dotproduct()
        evs = slices(build_timeline(design).to_chrome_trace())
        assert len(evs) == sum(1 for _ in design.controllers())
        sim = simulate(design)
        for ev, ctrl in zip(evs, design.controllers()):
            assert ev["args"]["cycles"] == sim.per_controller[ctrl.key]
            assert ev["dur"] == max(sim.per_controller[ctrl.key], 1.0)

    def test_zero_cycle_spans_stay_visible(self):
        tl = Timeline("noop", [Interval("noop", "Sequential", 5.0, 5.0, 0)])
        (ev,) = slices(tl.to_chrome_trace())
        assert ev["dur"] == 1.0  # clamped so Perfetto renders the slice
        assert ev["args"]["cycles"] == 0.0


class TestMetaPipeLayout:
    def test_stages_overlap_on_separate_lanes(self):
        ev = by_name(build_timeline(two_stage(metapipe=True)).to_chrome_trace())
        load, work = ev["load"], ev["work"]
        assert work["ts"] < load["ts"] + load["dur"]
        assert load["ts"] < work["ts"] + work["dur"]
        assert load["tid"] != work["tid"]


class TestParallelLayout:
    def test_children_share_start_on_separate_lanes(self):
        doc = build_timeline(dotproduct()).to_chrome_trace()
        loads = [e for e in slices(doc) if e["name"].startswith("tld")]
        assert len(loads) == 2
        assert loads[0]["ts"] == loads[1]["ts"]
        assert loads[0]["tid"] != loads[1]["tid"]


class TestWriteSink:
    def test_returns_slice_count(self, estimator, tmp_path):
        """``speedup --sim-trace`` reports the slices it wrote."""
        dest = tmp_path / "sim.json"
        out = io.StringIO()
        code = main(["speedup", "dotproduct", "--points", "5",
                     "--sim-trace", str(dest)], out=out, estimator=estimator)
        assert code == 0
        written = int(re.search(r"wrote (\d+) simulated-time slices",
                                out.getvalue()).group(1))
        assert written == len(slices(json.loads(dest.read_text())))


class TestEndToEnd:
    def test_simulated_benchmark_produces_sim_timeline(self):
        for metapipe in (True, False):
            design = dotproduct(metapipe)
            evs = slices(build_timeline(design).to_chrome_trace())
            root = evs[0]
            assert root["ts"] == 0.0
            assert root["dur"] == simulate(design).cycles
            assert all(e["ts"] + e["dur"] <= root["dur"] for e in evs)
