"""Unit tests for the estimation memoization layer (repro.estimation.cache)."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.apps import get_benchmark
from repro.estimation import (
    CachedTemplateModels,
    EstimationCaches,
    Estimator,
    LRUCache,
    point_key,
)
from repro.estimation.cache import MISS
from repro.target import MAIA



class TestLRUCache:
    def test_get_miss_returns_sentinel_not_none(self):
        cache = LRUCache("t", 4)
        assert cache.get("absent") is MISS
        cache.put("k", None)  # None is a legitimate value (illegal point)
        assert cache.get("k") is None

    def test_hit_miss_evict_accounting(self):
        cache = LRUCache("t", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        assert cache.get("zzz") is MISS
        cache.put("c", 3)  # evicts "b" (a was refreshed by the hit)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 2
        assert stats["evictions"] == 1
        assert len(cache) == 2

    def test_bound_is_enforced_under_churn(self):
        cache = LRUCache("t", 8)
        for i in range(1000):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions == 992
        # Only the most recent entries survive.
        assert all(cache.get(i) == i for i in range(992, 1000))

    def test_put_refreshes_existing_key_without_evicting(self):
        cache = LRUCache("t", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        assert cache.evictions == 0
        cache.put("c", 3)  # now "b" is oldest
        assert cache.get("b") is MISS
        assert cache.get("a") == 10

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache("t", 0)

    def test_clear_keeps_statistics(self):
        cache = LRUCache("t", 4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and "a" not in cache
        assert cache.hits == 1

class TestCachedTemplateModels:
    def test_predictions_match_and_memoize(self, estimator):
        caches = EstimationCaches()
        cached = caches.wrap_templates(estimator.templates)
        cold = estimator.templates.predict("counter", {"ndims": 2, "par": 4})
        warm1 = cached.predict("counter", {"ndims": 2, "par": 4})
        warm2 = cached.predict("counter", {"par": 4, "ndims": 2})  # any order
        assert cold == warm1 == warm2
        assert caches.template.hits == 1 and caches.template.misses == 1

    def test_hits_return_fresh_counts_not_aliases(self, estimator):
        """Callers may change a predicted Counts; hits must never alias."""
        caches = EstimationCaches()
        cached = caches.wrap_templates(estimator.templates)
        params = {"banks": 4, "bits": 32, "double": False}
        first = cached.predict("bram", params)
        first.brams = 1e9  # downstream mutation (the BRAM block override)
        second = cached.predict("bram", params)
        assert second is not first
        assert second.brams != 1e9
        assert second == estimator.templates.predict("bram", params)

    def test_models_view_follows_cache_flag(self, estimator):
        cold = Estimator(
            MAIA, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        assert cold.models is estimator.templates
        view = estimator.models
        assert isinstance(view, CachedTemplateModels)
        assert view.device is estimator.templates.device
        lookups = estimator.caches.template.stats()
        view.predict("counter", {"ndims": 1, "par": 2})
        after = estimator.caches.template.stats()
        assert (after["hits"] + after["misses"]
                == lookups["hits"] + lookups["misses"] + 1)


class TestEstimationCaches:
    def test_point_key_canonicalizes_ordering(self):
        a = point_key("b", {"n": 1, "m": 2}, 7)
        b = point_key("b", {"m": 2, "n": 1}, 7)
        assert a == b and hash(a) == hash(b)
        assert point_key("other", {"n": 1, "m": 2}, 7) != a
        assert point_key("b", {"n": 1, "m": 2}, 8) != a

    def test_summary_lines_and_stats(self):
        caches = EstimationCaches()
        caches.template.put("k", (0.0,) * 5)
        lines = caches.summary_lines()
        assert len(lines) == 4  # header + template/schedule/points
        assert "template" in lines[1]
        assert set(caches.stats()) == {"template", "schedule", "points"}

    def test_pickle_roundtrip(self, estimator):
        """Caches are plain data: pickleable for diagnostics/fork safety."""
        caches = EstimationCaches()
        caches.wrap_templates(estimator.templates).predict(
            "counter", {"ndims": 1, "par": 2}
        )
        clone = pickle.loads(pickle.dumps(caches))
        assert clone.template.misses == 1
        assert clone.template.get(
            ("counter", (("ndims", 1), ("par", 2)))
        ) is not MISS


def _child_probe(conn) -> None:
    """Fork child: verify the inherited warm cache, then grow it privately."""
    est = _FORK_ESTIMATOR
    warm_hits_visible = est.caches.template.misses > 0
    bench = get_benchmark("dotproduct")
    ds = bench.default_dataset()
    est.estimate(bench.build(ds, **bench.default_params(ds)))
    conn.send((warm_hits_visible, est.caches.template.hits,
               len(est.caches.template)))
    conn.close()


_FORK_ESTIMATOR = None


class TestForkInheritance:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="requires the fork start method",
    )
    def test_children_inherit_warm_cache_copy_on_write(self, estimator):
        """Forked workers see the parent's warm cache; their growth stays
        private (the parent's statistics don't move)."""
        global _FORK_ESTIMATOR
        estimator.caches.clear()
        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        estimator.estimate(bench.build(ds, **bench.default_params(ds)))
        parent_hits = estimator.caches.template.hits
        parent_size = len(estimator.caches.template)
        assert parent_size > 0

        _FORK_ESTIMATOR = estimator
        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_child_probe, args=(child_conn,))
            proc.start()
            warm_visible, child_hits, child_size = parent_conn.recv()
            proc.join(timeout=30)
        finally:
            _FORK_ESTIMATOR = None
        assert warm_visible, "child did not inherit the warm cache"
        assert child_hits > parent_hits, "child's estimate should hit warm"
        assert child_size >= parent_size
        # Copy-on-write: the child's activity never reaches the parent.
        assert estimator.caches.template.hits == parent_hits
        assert len(estimator.caches.template) == parent_size


class TestNoCacheEstimator:
    def test_cache_false_has_no_bundle(self, estimator):
        cold = Estimator(
            MAIA, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        assert cold.caches is None
        assert isinstance(estimator.caches, EstimationCaches)

    def test_default_estimator_no_cache_shares_models(self):
        from repro.estimation import default_estimator

        warm = default_estimator()
        cold = default_estimator(cache=False)
        assert cold.caches is None and warm.caches is not None
        # Both load the same shipped models rather than retraining.
        bench = get_benchmark("gda")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        a, b = cold.estimate(design), warm.estimate(design)
        assert (a.cycles, a.alms, a.dsps, a.brams) == (
            b.cycles, b.alms, b.dsps, b.brams
        )
