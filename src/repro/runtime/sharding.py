"""Deterministic partitioning of a seeded search space into shards.

The engine's determinism guarantee starts here: a :class:`ShardPlan` is
built by drawing the *exact same* seeded sample the serial explorer draws
(:meth:`repro.params.ParamSpace.sample` with ``random.Random(seed)``) and
then splitting that list into N contiguous, disjoint shards. Because the
sample is taken once, centrally, before any partitioning, the union of
the shards is byte-identical to the serial enumeration for every shard
count — sampling is the cheap part of DSE (RNG draws plus legality
checks); the expensive build/estimate work is what the shards distribute.

``shard_range=(lo, hi)`` assigns a plan only the shards with global
index in ``[lo, hi)``. Because the *partition* is computed over the full
sample regardless of the range, disjoint ranges on disjoint hosts tile
the exact serial point set — the multi-host protocol's foundation (see
``docs/runtime.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..params import ParamSpace

Point = Dict[str, object]

@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the sampled point list.

    ``start`` is the global index of the shard's first point; global
    indices (``start + offset``) identify points across checkpointing,
    merging, and conservation checks.
    """

    index: int
    start: int
    points: Sequence[Point]

    @property
    def stop(self) -> int:
        """Global index one past the shard's last point."""
        return self.start + len(self.points)

    @property
    def indices(self) -> range:
        """Global indices covered by this shard."""
        return range(self.start, self.stop)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class ShardPlan:
    """A partitioned enumeration of one benchmark's sampled space.

    ``shards`` holds only the shards *assigned* to this plan. For a
    whole-run plan that is the full partition; for a ranged plan
    (``shard_range``) it is a contiguous subset of it. ``planned_shards``
    and ``global_points`` always describe the full partition, so every
    host in a multi-host split writes the same run manifest.
    """

    seed: int
    max_points: int
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
        """Number of assigned shards in the plan."""
        return len(self.shards)

    @property
    def is_partial(self) -> bool:
        """True when this plan covers a strict subset of the partition."""
        return self.n_shards < self.planned_shards

    def sampled_points(self) -> List[Point]:
        """The assigned sampled points in global-index order."""
        out: List[Point] = []
        for shard in self.shards:
            out.extend(shard.points)
        return out


def plan_shards(
    space: ParamSpace,
    seed: int,
    max_points: int,
    shards: int = 1,
    shard_range: Optional[Tuple[int, int]] = None,
) -> ShardPlan:
    """Sample ``space`` exactly as the serial explorer would, then split.

    Raises :class:`ValueError` for a non-positive shard count. The
    partition is contiguous and balanced: the first ``total % shards``
    shards get one extra point. A plan may contain fewer (non-empty)
    shards than requested when the sample is small.

    ``shard_range=(lo, hi)`` assigns the plan only the shards with index
    in ``[lo, hi)`` — the full partition is still computed first, so
    disjoint ranges across hosts tile the serial point set exactly.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    rng = random.Random(seed)
    sampled = space.sample(rng, max_points)
    plan = ShardPlan(
        seed=seed, max_points=max_points, space_cardinality=space.cardinality,
        global_points=len(sampled),
    )
    base, extra = divmod(len(sampled), shards)
    start = 0
    all_shards: List[Shard] = []
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break  # fewer points than shards: drop empty trailing shards
        all_shards.append(
            Shard(
                index=index,
                start=start,
                points=tuple(sampled[start:start + size]),
            )
        )
        start += size
    plan.planned_shards = len(all_shards)
    if shard_range is None:
        plan.shards = all_shards
        return plan
    lo, hi = shard_range
    if not (isinstance(lo, int) and isinstance(hi, int)) or isinstance(
        lo, bool
    ) or isinstance(hi, bool):
        raise ValueError(
            f"shard_range must be a pair of integers, got {shard_range!r}"
        )
    if not (0 <= lo < hi <= plan.planned_shards):
        raise ValueError(
            f"shard_range {lo}:{hi} outside the plan's "
            f"{plan.planned_shards} shards (need 0 <= lo < hi <= "
            f"{plan.planned_shards})"
        )
    plan.shard_range = (lo, hi)
    plan.shards = [s for s in all_shards if lo <= s.index < hi]
    return plan
