"""Memoization layer for the estimation hot path (bounded LRU caches).

DSE sweeps estimate tens of thousands of design points built from the
same handful of templates: the *same* counter/load/store/prim parameter
tuples recur across thousands of points, and so do whole points across
the calls of a guided search. This module exploits that redundancy
without changing a single estimated bit:

* :class:`LRUCache` — a bounded, fork-inheritable cache with
  hit/miss/evict statistics (:meth:`LRUCache.stats`, which
  ``repro report`` prints).
* :class:`CachedTemplateModels` — a memoizing view over
  :class:`~repro.estimation.characterize.TemplateModels` keyed on
  ``(template key, canonical parameter tuple)``. Cache values are plain
  number tuples; every lookup reconstructs a fresh
  :class:`~repro.estimation.counts.Counts`, so a caller that changes
  the result never aliases cached state (the walk changes none: it
  copies the five values out and sets the BRAM block count in its copy).
* :class:`EstimationCaches` — the bundle an
  :class:`~repro.estimation.estimator.Estimator` owns: template
  predictions, a design-point estimate cache shared by guided search
  and the sharded explore runner, and the compiled class plans.

The estimator's walk (:mod:`repro.estimation.walk`) takes no cache:
template memoization reaches it only as the ``models`` it predicts from,
a :class:`CachedTemplateModels` view or the raw
:class:`~repro.estimation.characterize.TemplateModels`, on the
per-design path and in the plan compiler alike.

The LRU caches hold plain data (tuples, floats,
:class:`~repro.estimation.counts.Counts`, pickled-tested
:class:`~repro.estimation.estimator.Estimate` records); the bundle also
keeps the compiled class plans (:mod:`repro.estimation.plan`), which
hold generated functions. None of it is ever pickled: the
fork-after-training worker pool hands children the warm parent bundle
copy-on-write, and they keep private statistics.

Exactness contract: a cached value is always the object (or a
value-equal reconstruction) the cold path would have computed —
estimates with caching enabled are bit-identical to the ``--no-cache``
path (property-tested in ``tests/estimation/test_cache_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .characterize import TemplateModels
from .counts import Counts

#: Sentinel returned by :meth:`LRUCache.get` on a miss (``None`` is a
#: legitimate cached value: an illegal design point).
MISS = object()

DEFAULT_TEMPLATE_ENTRIES = 65_536
DEFAULT_SCHEDULE_ENTRIES = 8_192
DEFAULT_POINT_ENTRIES = 32_768


class LRUCache:
    """Bounded least-recently-used cache with hit/miss/evict accounting.

    Statistics are kept as plain integers (always on, fork-private).
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key: object) -> object:
        """Return the cached value for ``key``, or :data:`MISS`."""
        data = self._data
        value = data.get(key, MISS)
        if value is MISS:
            self.misses += 1
            return MISS
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: object, value: object) -> None:
        """Insert/refresh ``key``; evict the oldest entry past the bound."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, object]:
        """Snapshot of size, bound, and hit/miss/evict counts."""
        lookups = self.hits + self.misses
        return {
            "name": self.name,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


class CachedTemplateModels:
    """Memoizing view over :class:`TemplateModels` (drop-in for predicts).

    Keys are ``(template key, canonical sorted parameter tuple)``; values
    are the five predicted resource numbers. Every hit reconstructs a
    fresh :class:`Counts`, so no caller can corrupt the cache by changing
    one (the walk copies the values out and overrides the BRAM block
    count in its copy).
    """

    __slots__ = ("_models", "_cache")

    def __init__(self, models: TemplateModels, cache: LRUCache) -> None:
        self._models = models
        self._cache = cache

    @property
    def device(self):
        """The characterized device (mirrors :class:`TemplateModels`)."""
        return self._models.device

    def predict(self, key: str, params: Dict[str, object]) -> Counts:
        """Memoized :meth:`TemplateModels.predict` (value-identical)."""
        cache_key = (key, tuple(sorted(params.items())))
        hit = self._cache.get(cache_key)
        if hit is not MISS:
            return Counts(*hit)  # type: ignore[misc]
        counts = self._models.predict(key, params)
        self._cache.put(
            cache_key,
            (counts.luts_packable, counts.luts_unpackable, counts.regs,
             counts.dsps, counts.brams),
        )
        return counts

    def prim_key(self, op: str, tp) -> str:
        """:meth:`TemplateModels.prim_key` (nothing to memoize)."""
        return self._models.prim_key(op, tp)


def point_key(
    bench_name: str, dataset: Dict[str, int], index: Optional[int]
) -> Tuple:
    """Canonical cache key of the point at ``index`` in the benchmark's
    space on ``dataset`` (:meth:`~repro.params.ParamSpace.encode`)."""
    return (bench_name, tuple(sorted(dataset.items())), index)


class EstimationCaches:
    """The bounded cache bundle one :class:`Estimator` owns.

    * ``template`` — memoized template-model predictions;
    * ``points`` — full design-point estimates keyed on
      :func:`point_key`, consulted by
      :meth:`~repro.estimation.estimator.Estimator.estimate_points` for
      guided search and the sharded explore runner;
    * ``plans`` — compiled class plans per (benchmark, dataset), see
      :mod:`repro.estimation.plan`.

    ``points`` stays on the sweep path too, although a sweep never hits
    its own entries (``ParamSpace.sample`` draws distinct points): what
    a sweep stores is what later searches on the same estimator hit. On
    perfbench's ``session-blackscholes`` (seeds 1-3), 959-968 of 2,600
    lookups hit, 594-646 of them on points ``explore`` priced. With
    ``explore`` bypassing the LRU that workload fell from 15,537 to
    12,363 points/s, and to 11,232 with no LRU at all (single 12 s
    runs, 2 shared vCPUs).
    """

    def __init__(self) -> None:
        self.template = LRUCache("template", DEFAULT_TEMPLATE_ENTRIES)
        # Nothing fills it: kept only so stats() still has the "schedule"
        # row the DSE ledger reads.
        self.schedule = LRUCache("schedule", DEFAULT_SCHEDULE_ENTRIES)
        self.points = LRUCache("points", DEFAULT_POINT_ENTRIES)
        # One entry per (benchmark, dataset) swept, so unbounded.
        self.plans: Dict[tuple, object] = {}
        self.last_family: Optional[object] = None  # plan.family_of's memo

    def wrap_templates(self, models: TemplateModels) -> CachedTemplateModels:
        """A memoizing predict view over ``models`` backed by this bundle."""
        return CachedTemplateModels(models, self.template)

    def clear(self) -> None:
        """Empty every cache (statistics are kept)."""
        self.template.clear()
        self.schedule.clear()
        self.points.clear()
        self.plans.clear()
        self.last_family = None

    def caches(self) -> List[LRUCache]:
        """The individual caches, in display order."""
        return [self.template, self.schedule, self.points]

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-cache statistics snapshot (see :meth:`LRUCache.stats`)."""
        return {c.name: c.stats() for c in self.caches()}

    def summary_lines(self) -> List[str]:
        """Human-readable per-cache table (``repro report`` metrics section)."""
        lines = [
            f"{'cache':12s} {'size':>8s} {'max':>8s} {'hits':>10s} "
            f"{'misses':>10s} {'evict':>8s} {'hit rate':>9s}"
        ]
        for cache in self.caches():
            s = cache.stats()
            lines.append(
                f"{s['name']:12s} {s['size']:8,} {s['maxsize']:8,} "
                f"{s['hits']:10,} {s['misses']:10,} {s['evictions']:8,} "
                f"{100 * s['hit_rate']:8.1f}%"
            )
        return lines
