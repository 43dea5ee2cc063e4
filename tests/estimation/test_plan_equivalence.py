"""Differential test: class plans against the per-design oracle.

Every benchmark (plus the extension apps), every toggle class, the
default and small datasets, and IR-illegal points: :meth:`Estimator.estimate_points` (compiled class
plans) must return exactly what building each design and calling the
uncached :meth:`Estimator.estimate` returns — ``None`` for the same
illegal points and a pickle-identical :class:`Estimate` otherwise, so
every :class:`AreaEstimate` field down to the raw ``Counts`` is bit for
bit the same (and checkpoint bytes cannot move). Sweeps and guided
search are held to the golden estimates and to the oracle end to end.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

from repro import obs
from repro.apps import all_benchmarks
from repro.apps.extras import all_extras
from repro.dse import explore, local_search
from repro.estimation import Estimator
from repro.estimation.area import bram_blocks, delay_counts
from repro.estimation.cycles import stream_cycles
from repro.ir.primitives import Prim
from repro.params import BoolParam, IntParam

from .test_golden_estimates import POINTS, SEED, load_golden

BENCHES = all_benchmarks()


@pytest.fixture(scope="module")
def cold(estimator) -> Estimator:
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, cache=False,
    )


@pytest.fixture()
def fresh(estimator) -> Estimator:
    """A cached estimator with no plans compiled yet."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections,
    )


def class_points(space, per_class: int, seed: int):
    """``per_class`` sampled integer settings for every toggle tuple."""
    toggles = [p.name for p in space.params if isinstance(p, BoolParam)]
    sample = space.sample(random.Random(seed), 40 * per_class)
    points = []
    for values in itertools.product((False, True), repeat=len(toggles)):
        for base in sample[:per_class]:
            point = dict(base, **dict(zip(toggles, values)))
            if space.is_legal(point):
                points.append(point)
    return points


def illegal_variants(space, point):
    """``point`` with one integer parameter at a time set out of range."""
    out = []
    for param in space.params:
        if isinstance(param, IntParam):
            for value in (0, -4, 7, 3 * max(param.candidates) + 1):
                out.append(dict(point, **{param.name: value}))
    return out


def assert_same(bench, dataset, points, got, want):
    assert len(got) == len(want) == len(points)
    for point, g, w in zip(points, got, want):
        if pickle.dumps(g) != pickle.dumps(w):
            pytest.fail(
                f"{bench.name} {dataset} {point}:\n plan   {g!r}\n oracle {w!r}"
            )


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize(
    "bench", BENCHES + all_extras(), ids=lambda b: b.name
)
def test_every_class_matches_oracle(bench, small, fresh, cold):
    dataset = bench.small_dataset() if small else bench.default_dataset()
    space = bench.param_space(dataset)
    points = class_points(space, per_class=3, seed=11)
    points += illegal_variants(space, points[0])
    got = fresh.estimate_points(bench, dataset, points)
    want = cold.estimate_points(bench, dataset, points)
    assert any(w is None for w in want), "no IR-illegal point exercised"
    assert_same(bench, dataset, points, got, want)
    family = next(iter(fresh.caches.plans.values()))
    assert family.plan is not None, "the family fell back to per-point pricing"


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("name", ["kmeans", "blackscholes", "dotproduct"])
def test_plans_subscript_tables_that_hold_direct_calls(name, small, fresh):
    """Helpers run through tables; each entry is what a direct call gives."""
    bench = next(b for b in BENCHES if b.name == name)
    dataset = bench.small_dataset() if small else bench.default_dataset()
    points = class_points(bench.param_space(dataset), per_class=3, seed=5)
    fresh.estimate_points(bench, dataset, points)
    board, templates = fresh.board, fresh.templates
    direct = {
        "DELAY": delay_counts,
        "BRAM_BLOCKS": lambda *k: bram_blocks(*k, board.device),
        "STREAM": lambda *k: stream_cycles(*k[:4], board, k[4]),
    }
    filled = set()
    family = next(iter(fresh.caches.plans.values()))
    for plan in [family.plan]:
        for line in plan.source.splitlines():
            for helper in ("delay_counts(", "bram_blocks(", "stream_cycles("):
                assert helper not in line, line
        for table_name, table in plan.tables.items():
            for key, value in table.items():
                filled.add(table_name if table_name in direct else "T")
                if table_name in direct:
                    assert value == direct[table_name](*key), (table_name, key)
                else:
                    _, kind, names = table.fn.args
                    counts = templates.predict(kind, dict(zip(names, key)))
                    assert value == tuple(vars(counts).values()), (kind, key)
    # dotproduct's one Pipe body has no slack to balance.
    want = {"BRAM_BLOCKS", "STREAM", "T"}
    assert filled == (want if name == "dotproduct" else want | {"DELAY"})


def test_single_points_match_blocks(fresh, cold):
    """N=1 calls (guided search) price exactly like blocks."""
    bench = BENCHES[-1]
    dataset = bench.default_dataset()
    points = class_points(bench.param_space(dataset), per_class=2, seed=3)
    singles = [fresh.estimate_points(bench, dataset, [p])[0] for p in points]
    assert_same(bench, dataset, points, singles,
                cold.estimate_points(bench, dataset, points))


def test_parameter_dependent_structure_is_refused(fresh, cold, monkeypatch):
    """A builder whose shape follows a parameter is priced per point."""
    bench = next(b for b in BENCHES if b.name == "dotproduct")
    dataset = bench.small_dataset()
    build = bench.build

    def build_shape_follows_tile(dataset, **params):
        design = build(dataset, **params)
        design.name = f"dotproduct{params['tile']}"
        return design

    monkeypatch.setattr(bench, "build", build_shape_follows_tile)
    points = bench.param_space(dataset).sample(random.Random(1), 30)
    got = fresh.estimate_points(bench, dataset, points)
    assert_same(bench, dataset, points, got,
                cold.estimate_points(bench, dataset, points))
    family = next(iter(fresh.caches.plans.values()))
    assert family.plan is None and family.refused


def test_structure_following_a_toggle_is_refused_whole(fresh, cold,
                                                       monkeypatch):
    """A builder that branches on its toggle beyond ``loop(metapipe_=...)``
    (here: an op that follows it) is priced per point, every class."""
    bench = next(b for b in BENCHES if b.name == "dotproduct")
    dataset = bench.small_dataset()
    build = bench.build

    def build_op_follows_toggle(dataset, **params):
        design = build(dataset, **params)
        if params["metapipe"]:
            mul = next(n for n in design.nodes
                       if isinstance(n, Prim) and n.op == "mul")
            mul.op = "add"
        return design

    monkeypatch.setattr(bench, "build", build_op_follows_toggle)
    points = class_points(bench.param_space(dataset), per_class=6, seed=2)
    assert {p["metapipe"] for p in points} == {False, True}
    got = fresh.estimate_points(bench, dataset, points)
    assert_same(bench, dataset, points, got,
                cold.estimate_points(bench, dataset, points))
    family = next(iter(fresh.caches.plans.values()))
    assert family.plan is None and family.refused


def test_one_compile_reaches_every_toggle_combination(fresh):
    """An explore whose points hold every toggle combination of kmeans
    compiles one plan: one ``estimate.compile`` span, no refusal."""
    bench = next(b for b in BENCHES if b.name == "kmeans")
    obs.reset()
    obs.enable()
    try:
        result = explore(bench, fresh, max_points=200, seed=1)
        compiles = obs.tracer().find("estimate.compile")
    finally:
        obs.disable()
        obs.reset()
    toggles = {(p.params["mp_tiles"], p.params["mp_point"])
               for p in result.points}
    assert len(toggles) == 4
    (span,) = compiles
    assert "refused" not in span.attrs and span.attrs["nodes"] > 0


def golden_rows(result):
    return [[p.cycles, p.alms, p.estimate.dsps, p.estimate.brams, False]
            for p in result.points]


def test_parallel_resumed_explore_matches_golden(fresh, tmp_path):
    golden = load_golden()["benchmarks"]
    for bench in BENCHES[:3]:
        ckpt = tmp_path / bench.name
        kwargs = dict(max_points=POINTS, seed=SEED, workers=2,
                      checkpoint_dir=ckpt)
        first = explore(bench, fresh, **kwargs)
        resumed = explore(bench, fresh, resume=True, **kwargs)
        assert resumed.restored == POINTS
        want = golden[bench.name]["rows"]
        assert golden_rows(first) == golden_rows(resumed) == want


def test_serial_explore_matches_golden(fresh):
    golden = load_golden()["benchmarks"]
    for bench in BENCHES[3:]:
        result = explore(bench, fresh, max_points=POINTS, seed=SEED)
        assert golden_rows(result) == golden[bench.name]["rows"]


@pytest.mark.parametrize("bench", [BENCHES[4], BENCHES[6]],
                         ids=lambda b: b.name)
def test_local_search_matches_oracle(bench, fresh, cold):
    for seed in (1, 2):
        got = local_search(bench, fresh, budget=60, seed=seed)
        want = local_search(bench, cold, budget=60, seed=seed)
        assert got.evaluations == want.evaluations
        assert got.trajectory == want.trajectory
        assert got.best.params == want.best.params
        assert pickle.dumps(got.best.estimate) == pickle.dumps(
            want.best.estimate
        )
