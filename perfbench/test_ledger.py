"""Tests of the ledger's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import types

import pytest

import ledger
import workloads
from repro.ir.node import IRError
from tracer import Recorder

FRONT = (1000.0, 5000, 12, 40, True)
OFF = (2000.0, 4000, 10, 30, False)


def _drift(row, rel):
    return (row[0] * (1 + rel),) + row[1:]


class TestDigestTolerance:
    def test_identical_rows_pass(self):
        assert ledger.count_mismatches([FRONT, OFF], [FRONT, OFF]) == 0

    def test_tiny_cycles_drift_passes(self):
        assert ledger.count_mismatches([FRONT, OFF],
                                       [_drift(FRONT, 1e-13), OFF]) == 0

    def test_large_cycles_drift_fails(self):
        assert ledger.count_mismatches([FRONT, OFF],
                                       [_drift(FRONT, 1e-9), OFF]) == 1

    def test_pareto_membership_change_fails(self):
        flipped = FRONT[:4] + (False,)
        assert ledger.count_mismatches([FRONT, OFF], [flipped, OFF]) == 1

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_resource_counts_are_exact(self, index):
        changed = list(OFF)
        changed[index] += 1
        assert ledger.count_mismatches([OFF], [tuple(changed)]) == 1

    def test_changed_sample_size_fails_every_point(self):
        assert ledger.count_mismatches([FRONT, OFF], [FRONT]) == 2

    def test_illegal_matches_only_illegal(self):
        assert ledger.rows_match(None, None)
        assert not ledger.rows_match(None, OFF[:4])
        assert not ledger.rows_match(OFF[:4], None)


class _Est:
    def __init__(self, cycles):
        self.cycles, self.alms, self.dsps, self.brams = cycles, 10, 1, 2


class _FakeBench:
    """``build`` returns the params; the estimator turns ``c`` into cycles."""

    def build(self, dataset, c=None, raise_=None):
        if raise_ is not None:
            raise raise_
        return c


class _FakeEstimator:
    def estimate(self, design):
        return _Est(design)


class TestFailureCounting:
    def test_irerror_is_an_outcome_not_a_failure(self):
        expected = [
            ({"c": 5.0}, (5.0, 10, 1, 2)),               # matches
            ({"raise_": IRError("illegal")}, None),      # illegal as expected
            ({"raise_": ValueError("boom")}, (1.0, 10, 1, 2)),  # crash
            ({"c": 7.0}, (6.0, 10, 1, 2)),               # wrong estimate
            ({"raise_": IRError("illegal")}, (1.0, 10, 1, 2)),  # newly illegal
        ]
        failed = workloads.recheck(_FakeBench(), _FakeEstimator(), {}, expected)
        assert failed == 3
        assert ledger.failed_ratio(failed, len(expected)) == pytest.approx(0.6)

    def test_failed_ratio_of_nothing_is_zero(self):
        assert ledger.failed_ratio(0, 0) == 0.0


class TestSelfTimes:
    def test_build_minus_finalize(self):
        spans = [
            ("explore", 0.0, 10.0, None),
            ("ir.build", 1.0, 5.0, 0),
            ("ir.finalize", 2.0, 4.5, 1),
            ("estimation.cycles", 5.0, 6.0, 0),
        ]
        assert ledger.self_times(spans) == pytest.approx([5.0, 1.5, 2.5, 1.0])
        layers = ledger.layer_self_times(spans)
        assert layers == pytest.approx(
            {"ir.build": 1.5, "ir.finalize": 2.5, "estimation.cycles": 1.0})

    def test_recorder_nests_wrapped_calls(self):
        ns = types.SimpleNamespace()
        ns.finalize = lambda: "done"
        ns.build = lambda: ns.finalize()
        rec = Recorder()
        rec.wrap(ns, "build", "ir.build")
        rec.wrap(ns, "finalize", "ir.finalize")
        ns.build()  # outside any root: not recorded
        with rec.call("explore"):
            assert ns.build() == "done"
        rec.unwrap_all()
        assert [(s[0], s[3]) for s in rec.tuples()] == [
            ("explore", None), ("ir.build", 0), ("ir.finalize", 1)]
        assert ns.build() == "done" and len(rec.spans) == 3

    def test_unwrap_restores_class_and_instance_attributes(self):
        class Thing:
            def work(self):
                return 1

        thing = Thing()
        original = Thing.__dict__["work"]
        rec = Recorder()
        rec.wrap(Thing, "work", "a")
        rec.wrap(thing, "work", "b")
        rec.unwrap_all()
        assert Thing.__dict__["work"] is original
        assert "work" not in vars(thing)


class TestUnattributedShare:
    def test_synthetic_span_list(self):
        spans = [
            ("explore", 0.0, 10.0, None),
            ("runtime.pool", 1.0, 9.0, 0),
            ("ir.build", 2.0, 4.0, 1),
            ("ir.finalize", 2.5, 3.0, 2),
            ("pareto", 10.0, 12.0, None),
            ("dse.pareto", 10.5, 11.5, 4),
        ]
        # Layers cover 8 s of the 10 s explore and 1 s of the 2 s pareto.
        assert ledger.unattributed_share(spans) == pytest.approx(3 / 12)

    def test_no_layers_is_fully_unattributed(self):
        assert ledger.unattributed_share([("explore", 0.0, 2.0, None)]) == 1.0


class TestSpeedScaling:
    def test_sample_window_and_fallback(self):
        sampler = ledger.SpeedSampler()
        sampler.samples = [(1.0, 0.1), (2.0, 0.3), (3.0, 0.2)]
        assert sampler.sample_s(1.5, 3.5) == pytest.approx(0.25)
        assert sampler.sample_s(5.0, 6.0) == pytest.approx(0.2)

    def test_slow_host_scales_wall_down(self):
        slow = 2 * ledger.REFERENCE_SAMPLE_S
        assert ledger.to_reference_s(3.0, slow) == pytest.approx(1.5)


class TestPoolMetrics:
    def test_busy_share_and_dispatch_overhead(self):
        got = ledger.pool_metrics(
            10.0, 2, [(1, 4.0), (2, 5.0), (1, 4.0)])
        assert got["worker_busy_share"] == pytest.approx(13 / 20)
        assert got["dispatch_overhead_s"] == pytest.approx(2.0)
