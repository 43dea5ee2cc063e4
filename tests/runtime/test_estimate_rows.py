"""Flat estimate rows: the checkpoint line and the forked return trip.

A priced point leaves a worker as one flat row (:func:`estimate_row`):
the shard writer formats its checkpoint line from the row (and the
point's params from per-candidate spellings), and a forked
worker's :class:`ShardOutcome` pickles its records as rows. Both must be
invisible: the line is byte for byte what the JSON encoder writes for
the record's doc, and a forked record pickles to the same bytes as the
serial sweep's.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import get_benchmark
from repro.estimation import Estimator
from repro.estimation.estimator import DesignPoint
from repro.ir.node import IRError
from repro.params import BoolParam, IntParam, ParamSpace
from repro.runtime import (
    estimate_from_doc,
    estimate_to_doc,
    fork_available,
    plan_shards,
    run_plan,
)
from repro.runtime.checkpoint import (
    _line,
    _parse_line,
    _point_line,
    estimate_from_row,
    estimate_row,
    params_spellings,
)
from repro.target.board import MAIA

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")]),
)
NUMBERS = st.one_of(FLOATS, st.integers(), FLOATS.map(np.float64))
# Rows of the estimator's own types: two floats, four ints, nine floats.
ESTIMATOR_ROWS = st.tuples(
    st.text(), FLOATS, FLOATS, *[st.integers()] * 4, *[FLOATS] * 9,
)
ROWS = st.one_of(ESTIMATOR_ROWS, st.tuples(st.text(), *[NUMBERS] * 15))
PARAMS = st.dictionaries(
    st.text(), st.one_of(st.integers(), st.booleans()), max_size=6
)


def plain(row) -> bool:
    """Whether JSON carries every number of ``row`` back unchanged."""
    return all(
        type(v) is int or (type(v) is float and np.isfinite(v))
        for v in row[1:]
    )


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, 10**9), params=PARAMS,
       row=st.one_of(st.none(), ROWS))
def test_point_line_is_the_json_encoders(index, params, row):
    est = None if row is None else estimate_from_row(row, MAIA)
    record = DesignPoint(params, est, index)
    space = ParamSpace()  # one whose point ``params`` is
    for name, value in params.items():
        space.add(BoolParam(name) if type(value) is bool
                  else IntParam(name, (value,)))
    line = _point_line(record, params_spellings(space))
    assert line == _line({
        "t": "p", "i": index, "params": params,
        "est": None if est is None else estimate_to_doc(est),
    })
    doc = _parse_line(line)
    assert doc["i"] == index and doc["params"] == params
    if row is None:
        assert doc["est"] is None
        return
    back = estimate_from_doc(doc["est"], MAIA)
    # What JSON can carry: np.float64 comes back a float, nan a fresh nan.
    carried = estimate_from_row(json.loads(json.dumps(row)), MAIA)
    assert pickle.dumps(back) == pickle.dumps(carried)
    if plain(row):
        assert pickle.dumps(back) == pickle.dumps(est)


@given(row=ROWS)
def test_row_round_trips(row):
    est = estimate_from_row(row, MAIA)
    assert estimate_row(est) == row
    assert pickle.dumps(estimate_from_row(estimate_row(est), MAIA)) == (
        pickle.dumps(est)
    )


def sorted_records(run):
    return sorted(
        (r for o in run.outcomes for r in o.records), key=lambda r: r.index
    )


def with_illegal_points(plan, bench, dataset):
    """``plan`` with every tenth point replaced by an IR-illegal one.

    Sampled points are legal, and no sampled gda point fails the IR
    build. Some points the space's constraints reject (a row tile that
    its par factor does not divide) do, so their records carry a
    ``None`` estimate.
    """
    space = plan.space
    everything = np.arange(space.cardinality)
    illegal = []
    for index in everything[~space.legal(everything)].tolist():
        try:
            bench.build(dataset, **space.points([index])[0])
        except IRError:
            illegal.append(index)
            if len(illegal) == plan.total_points // 10:
                break
    planted = iter(illegal)
    plan.shards = [
        replace(shard, points=np.array([
            next(planted) if (shard.start + k) % 10 == 0 else index
            for k, index in enumerate(shard.points.tolist())
        ]))
        for shard in plan.shards
    ]
    return plan


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_forked_records_pickle_like_serial_ones(estimator):
    """Rows cross the process boundary; the parent rebuilds the records
    the serial sweep makes, illegal points' ``None`` included."""
    bench = get_benchmark("gda")
    dataset = bench.default_dataset()
    space = bench.param_space(dataset)
    plan = with_illegal_points(plan_shards(space, 3, 1200, 4), bench, dataset)

    def sweep(workers):
        fresh = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections,
        )
        return run_plan(bench, fresh, dataset, plan, workers=workers)

    serial = sorted_records(sweep(1))
    obs.reset()
    obs.enable()
    try:
        forked = sweep(2)
        worker_spans = [s for s in obs.tracer().spans
                        if s.pid != os.getpid()]
    finally:
        obs.disable()
        obs.reset()
    assert all(o.worker not in (0, os.getpid()) for o in forked.outcomes)
    assert sum(r.estimate is None for r in serial) == 120
    assert [pickle.dumps(r) for r in sorted_records(forked)] == [
        pickle.dumps(r) for r in serial
    ]
    # The workers' spans still reach the parent's tracer.
    assert {s.pid for s in worker_spans} == {o.worker for o in forked.outcomes}
    assert any(s.name == "estimate.plan" for s in worker_spans)
