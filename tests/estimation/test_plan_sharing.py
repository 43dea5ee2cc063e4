"""Plans name each repeated product once and read the family's tables.

A plan's raw counts add one term per template instance; identical Pipes
(kmeans's eight distance pipes) repeat the same product, which the plan
computes once into a local. The lookup and template tables belong to
the (benchmark, dataset) family, one table object per function, and
the order in which toggle classes are priced leaves the same keys.
"""

from __future__ import annotations

import collections
import re

import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.estimation import Estimator
from repro.params import BoolParam

from .test_plan_equivalence import assert_same, class_points

#: An innermost parenthesized product of the raw sums, e.g. ``(t3_0 * p2)``.
PRODUCT = re.compile(r"\([^()]* \* [^()]*\)")


def _fresh(estimator, **kwargs) -> Estimator:
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, **kwargs,
    )


def compiled_family(bench, estimator):
    """The family of ``bench`` on its default dataset, its plan compiled
    from points of every toggle class."""
    dataset = bench.default_dataset()
    points = class_points(bench.param_space(dataset), per_class=3, seed=11)
    estimator.estimate_points(bench, dataset, points)
    (family,) = estimator.caches.plans.values()
    assert family.plan is not None and family.toggles
    return family, [family.plan]


def table_identity(name, table):
    """What a table computes: a lookup's name or a template's (key, names)."""
    return table.fn.args[1:] if name.startswith("T") else name


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_no_product_repeats_in_the_raw_sums(bench, estimator):
    _, plans = compiled_family(bench, _fresh(estimator))
    for plan in plans:
        (raw,) = [line for line in plan.source.splitlines()
                  if line.lstrip().startswith("raw = Counts(")]
        repeated = [product for product, n in
                    collections.Counter(PRODUCT.findall(raw)).items() if n > 1]
        assert not repeated, (bench.name, repeated)


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_classes_of_a_family_share_table_objects(bench, estimator):
    family, (plan,) = compiled_family(bench, _fresh(estimator))
    shared = {}
    for name, table in plan.tables.items():
        first = shared.setdefault(table_identity(name, table), table)
        assert first is table, (bench.name, name)
        if name in family.tables:
            assert family.tables[name] is table
        else:
            assert family.templates[table.fn.args[1:]] is table
    assert set(family.tables) <= set(shared)


def test_tables_filled_by_one_class_price_another(estimator):
    """kmeans's classes priced forward and in reverse, each on a fresh
    estimator, both match the uncached oracle point for point."""
    bench = get_benchmark("kmeans")
    dataset = bench.default_dataset()
    space = bench.param_space(dataset)
    toggles = [p.name for p in space.params if isinstance(p, BoolParam)]
    classes = collections.defaultdict(list)
    for point in class_points(space, per_class=5, seed=17):
        classes[tuple(point[name] for name in toggles)].append(point)
    assert len(classes) == 4
    cold = _fresh(estimator, cache=False)
    filled = []
    for order in (list(classes), list(reversed(classes))):
        fresh = _fresh(estimator)
        for key in order:
            points = classes[key]
            assert_same(bench, dataset, points,
                        fresh.estimate_points(bench, dataset, points),
                        cold.estimate_points(bench, dataset, points))
        (family,) = fresh.caches.plans.values()
        filled.append({
            table_identity(name, table): set(table)
            for name, table in family.plan.tables.items()
        })
    assert filled[0] == filled[1]
