"""Point identity: a design point is its mixed-radix index.

The oracle is the dict sampler :class:`~repro.params.ParamSpace` had
before points became indices, frozen here: it builds every point as a
dict, checks each constraint per point, and draws one ``randrange``
digit per parameter per attempt. The index sampler must produce the same
point lists, in the same order, and leave ``rng`` in the same state.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.apps.extras import all_extras
from repro.params import ParamSpace

BENCHES = all_benchmarks() + all_extras()


# -- the frozen dict sampler ---------------------------------------------------


def oracle_iter_points(space):
    names = space.names
    for combo in itertools.product(*(p.candidates for p in space.params)):
        point = dict(zip(names, combo))
        if all(c(point) for c in space.constraints):
            yield point


def oracle_random_sample(space, rng, max_points):
    seen = set()
    points = []
    names = space.names
    candidate_lists = [list(p.candidates) for p in space.params]
    attempts = 0
    max_attempts = max_points * 50
    while len(points) < max_points and attempts < max_attempts:
        attempts += 1
        combo = tuple(c[rng.randrange(len(c))] for c in candidate_lists)
        if combo in seen:
            continue
        seen.add(combo)
        point = dict(zip(names, combo))
        if all(c(point) for c in space.constraints):
            points.append(point)
    return points


# -- fixtures ------------------------------------------------------------------


def enumerable_dataset(bench):
    """The default dataset, or the small one where the oracle would take
    seconds to walk the default space (gemm: 1.5M combinations)."""
    dataset = bench.default_dataset()
    if bench.param_space(dataset).cardinality > 300_000:
        dataset = bench.small_dataset()
    return dataset


@functools.lru_cache(maxsize=None)
def oracle_legal(name):
    bench = next(b for b in BENCHES if b.name == name)
    space = bench.param_space(enumerable_dataset(bench))
    return space, list(oracle_iter_points(space))


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_enumeration_matches_the_dict_walk(bench):
    space, legal = oracle_legal(bench.name)
    assert list(space.iter_points()) == legal
    assert space.points(space.legal_indices()) == legal


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_small_space_sample_matches_the_oracle(bench, seed):
    space, legal = oracle_legal(bench.name)
    budget = space.cardinality // 4 + 1  # enumerate-and-shuffle path
    want = list(legal)
    oracle_rng = random.Random(seed)
    oracle_rng.shuffle(want)
    rng = random.Random(seed)
    assert space.sample(rng, budget) == want[:budget]
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("budget", [1, 7, 200])
@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_random_sample_matches_the_oracle(bench, seed, budget):
    space = bench.param_space(bench.default_dataset())
    budget = min(budget, (space.cardinality - 1) // 4)  # random-draw path
    oracle_rng, rng = random.Random(seed), random.Random(seed)
    want = oracle_random_sample(space, oracle_rng, budget)
    assert space.sample(rng, budget) == want
    # Search keeps drawing from the same rng after its starts.
    assert rng.getstate() == oracle_rng.getstate()


def test_tightly_constrained_space_stops_at_the_attempt_bound():
    space = ParamSpace()
    space.int_param("a", range(1, 101))
    space.int_param("b", range(1, 101))
    space.constrain(lambda p: p["a"] + p["b"] == 3)  # 2 legal of 10,000
    oracle_rng, rng = random.Random(4), random.Random(4)
    want = oracle_random_sample(space, oracle_rng, 50)
    assert space.sample(rng, 50) == want
    assert rng.getstate() == oracle_rng.getstate()


def test_whole_space_legal_counts():
    counts = {}
    for name in ("dotproduct", "gemm"):
        bench = get_benchmark(name)
        space = bench.param_space(bench.default_dataset())
        counts[name] = len(space.legal_indices())
    assert counts == {"dotproduct": 10_406, "gemm": 1_086_912}


# -- encode / decode -----------------------------------------------------------


@st.composite
def spaces_and_indices(draw):
    space = ParamSpace()
    for k in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            space.bool_param(f"b{k}")
        else:
            values = draw(st.lists(st.integers(-50, 50), min_size=1,
                                   max_size=6, unique=True))
            space.int_param(f"i{k}", values)
    indices = draw(st.lists(st.integers(0, space.cardinality - 1),
                            max_size=20))
    return space, indices


@settings(max_examples=200, deadline=None)
@given(spaces_and_indices())
def test_encode_inverts_decode(case):
    space, indices = case
    points = space.points(indices)
    assert [space.encode(p) for p in points] == indices
    # Declaration order, last parameter fastest: itertools.product order.
    product = list(itertools.product(*(p.candidates for p in space.params)))
    assert [tuple(p.values()) for p in points] == [product[i] for i in indices]
    columns = space.decode(np.array(indices, dtype=np.int64))
    assert list(columns) == space.names


def test_encode_refuses_points_outside_the_space():
    bench = get_benchmark("dotproduct")
    space = bench.param_space(bench.default_dataset())
    point = space.points([5])[0]
    for bad in (dict(point, tile=0), {**point, "extra": 1},
                {k: v for k, v in point.items() if k != "tile"}, [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="not a point of this space"):
            space.encode(bad)


def test_repeated_candidates_are_refused():
    with pytest.raises(ValueError, match="repeats a candidate"):
        ParamSpace().int_param("tile", [4, 8, 4])


# -- constraints that do not vectorize -----------------------------------------


@pytest.mark.parametrize("predicate", [
    lambda p: p["a"] % p["b"] == 0 and p["a"] * p["b"] <= 64,
    lambda p: p["a"] <= 8 if p["m"] else True,
    lambda p: p["a"] % p["b"],
    lambda p: True,
], ids=["and", "if", "not-boolean", "scalar"])
def test_constraint_that_does_not_vectorize_fails_loudly(predicate):
    space = ParamSpace()
    space.int_param("a", [1, 2, 4, 8, 16])
    space.int_param("b", [1, 2, 4])
    space.bool_param("m")
    space.constrain(predicate)
    for call in (lambda: space.legal([0]), lambda: list(space.iter_points()),
                 lambda: space.sample(random.Random(1), 1),
                 lambda: space.sample(random.Random(1), 100)):
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert "\n" not in message and "(a, b, m)" in message
