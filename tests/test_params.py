"""Tests for design parameters and the pruned parameter space."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.params import (
    BoolParam,
    IntParam,
    ParamSpace,
    divisors,
)


class TestDivisors:
    def test_known_values(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(13) == [1, 13]

    def test_perfect_square(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)
        with pytest.raises(ValueError):
            divisors(-4)

    @given(st.integers(1, 100_000))
    def test_all_divide(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n
        assert ds == sorted(set(ds))

    @given(st.integers(1, 10_000))
    def test_divisor_pairing(self, n):
        ds = divisors(n)
        assert all(n // d in ds for d in ds)


class TestParamSpace:
    def make_space(self):
        space = ParamSpace()
        space.int_param("tile", [16, 32, 64])
        space.int_param("par", [1, 2, 4, 8])
        space.bool_param("mp")
        space.constrain(lambda p: p["tile"] % p["par"] == 0)
        return space

    def test_cardinality(self):
        assert self.make_space().cardinality == 3 * 4 * 2

    def test_iter_points_respects_constraints(self):
        points = list(self.make_space().iter_points())
        assert all(p["tile"] % p["par"] == 0 for p in points)
        assert len(points) == 24  # all pars divide all tiles here

    def test_constraint_actually_prunes(self):
        space = self.make_space()
        space.constrain(lambda p: p["par"] < p["tile"] // 8)
        points = list(space.iter_points())
        assert 0 < len(points) < 24

    def test_duplicate_name_rejected(self):
        space = ParamSpace()
        space.int_param("x", [1])
        with pytest.raises(ValueError):
            space.int_param("x", [2])

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            IntParam("x", [])

    def test_sample_small_space_exhaustive(self):
        space = self.make_space()
        rng = random.Random(0)
        points = space.sample(rng, 1000)
        assert len(points) == 24

    def test_sample_respects_budget(self):
        space = ParamSpace()
        space.int_param("a", list(range(50)))
        space.int_param("b", list(range(50)))
        space.int_param("c", list(range(50)))
        rng = random.Random(0)
        points = space.sample(rng, 200)
        assert len(points) == 200
        assert len({tuple(sorted(p.items())) for p in points}) == 200

    def test_sample_discards_illegal(self):
        space = ParamSpace()
        space.int_param("a", list(range(100)))
        space.int_param("b", list(range(100)))
        space.constrain(lambda p: p["a"] % 2 == 0)
        rng = random.Random(1)
        points = space.sample(rng, 500)
        assert points
        assert all(p["a"] % 2 == 0 for p in points)

    def test_bool_param_candidates(self):
        assert list(BoolParam("x").candidates) == [False, True]

    def test_names_ordered(self):
        assert self.make_space().names == ["tile", "par", "mp"]

    def test_heavily_constrained_space_terminates(self):
        space = ParamSpace()
        space.int_param("a", list(range(1000)))
        space.constrain(lambda p: p["a"] == 77)  # 0.1% acceptance
        rng = random.Random(2)
        points = space.sample(rng, 10)
        assert all(p["a"] == 77 for p in points)
