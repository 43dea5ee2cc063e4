"""Generated class plans test only guards that can fail.

A guard is an IRError rule lowered to ``if not (...): return None``.
Rules that hold for every point are folded while compiling: an int
compared with itself (``v3 <= v3``), and the constant half of a
conjunction (``p1 > 0 and 1 > 0``), which is split into one guard per
half so a repeated half is emitted once.
"""

from __future__ import annotations

import re

import pytest

from repro.apps import all_benchmarks
from repro.estimation import Estimator

from .test_plan_equivalence import class_points

GUARD = re.compile(r"^\s*if not \((.*)\): return None$")
SELF_COMPARED = re.compile(r"(?<![\w.])(\w+) <= \1(?![\w.])")
CONSTANT_COMPARED = re.compile(r"(?<![\w.])\d+ [<>]=? \d+(?![\w.])")


@pytest.fixture()
def fresh(estimator) -> Estimator:
    """A cached estimator with no plans compiled yet."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections,
    )


def plan_guards(bench, estimator):
    """The guard expressions of the compiled plan of ``bench``."""
    dataset = bench.default_dataset()
    points = class_points(bench.param_space(dataset), per_class=3, seed=11)
    estimator.estimate_points(bench, dataset, points)
    (family,) = estimator.caches.plans.values()
    assert family.plan is not None
    lines = family.plan.source.splitlines()
    return [m.group(1) for m in map(GUARD.match, lines) if m]


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_no_guard_always_holds(bench, fresh):
    guards = plan_guards(bench, fresh)
    assert len(set(guards)) == len(guards), guards
    for guard in guards:
        assert " and " not in guard, guard
        assert not SELF_COMPARED.search(guard), guard
        assert not CONSTANT_COMPARED.search(guard), guard
