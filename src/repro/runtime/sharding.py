"""Deterministic partitioning of a seeded search space into shards.

The serial explorer's seeded sample of point indices is drawn once and
split into contiguous, disjoint shards, so their union is the serial
sample for every shard count; each worker decodes only its own shard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..params import ParamSpace


def require_positive(name: str, value: object) -> None:
    """Raise :class:`ValueError` unless ``value`` is an int >= 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Shard:
    """One contiguous slice of the sample: ``points`` holds the points'
    indices in the space; ``start + offset`` is a point's global index
    (its position in the sample) across checkpointing and merging."""

    index: int
    start: int
    points: Sequence[int]  # an int64 array

    @property
    def indices(self) -> range:
        """Global indices covered by this shard."""
        return range(self.start, self.start + len(self.points))

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class ShardPlan:
    """A partitioned sample of ``space``; ``shards`` holds the *assigned*
    shards, while ``planned_shards`` and ``global_points`` describe the
    full partition, so every host of a split writes the same manifest."""

    seed: int
    max_points: int
    space: ParamSpace
    shards: List[Shard] = field(default_factory=list)
    space_cardinality: int = 0
    planned_shards: int = 0
    global_points: int = 0
    shard_range: Optional[Tuple[int, int]] = None

    @property
    def total_points(self) -> int:
        """Number of sampled points across the *assigned* shards."""
        return sum(len(s) for s in self.shards)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def is_partial(self) -> bool:
        """True when this plan covers a strict subset of the partition."""
        return self.n_shards < self.planned_shards


def plan_shards(space: ParamSpace, seed: int, max_points: int,
                shards: int = 1,
                shard_range: Optional[Tuple[int, int]] = None) -> ShardPlan:
    """Sample ``space`` as the serial explorer does, then split it; the
    first ``total % shards`` shards get one extra point, and empty
    trailing shards are dropped. ``shard_range=(lo, hi)`` keeps shards
    ``lo..hi-1`` of the full partition, so disjoint ranges on disjoint
    hosts tile the serial sample (``docs/runtime.md``)."""
    require_positive("max_points", max_points)
    require_positive("shards", shards)
    sampled = space.sample_indices(random.Random(seed), max_points)
    base, extra = divmod(len(sampled), shards)
    bounds = [0]
    for i in range(min(shards, len(sampled))):
        bounds.append(bounds[-1] + base + (i < extra))
    partition = [Shard(i, lo, sampled[lo:hi])
                 for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    plan = ShardPlan(seed, max_points, space, partition, space.cardinality,
                     len(partition), len(sampled))
    if shard_range is not None:
        lo, hi = shard_range
        if not all(type(v) is int for v in shard_range):
            raise ValueError(
                f"shard_range must be a pair of integers, got {shard_range!r}"
            )
        if not 0 <= lo < hi <= len(partition):
            raise ValueError(
                f"shard_range {lo}:{hi} outside the plan's {len(partition)} "
                f"shards (need 0 <= lo < hi <= {len(partition)})"
            )
        plan.shard_range, plan.shards = (lo, hi), partition[lo:hi]
    return plan
