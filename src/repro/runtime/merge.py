"""Merging shard results into the global point list.

:func:`merge_outcomes` walks the plan's shards in order and concatenates
their outcomes, one per shard with its records in global index order,
so the result is the serial explorer's order without a sort. The walk
is the conservation proof: a dropped shard, a duplicated outcome, or an
outcome missing a planned index or holding a foreign one raises
:class:`ConservationError` — a wrong parallel merge must never
masquerade as a smaller design space. The Pareto front is then computed
once over the merged list (:mod:`repro.dse.pareto`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..estimation.estimator import DesignPoint
from .pool import ShardOutcome
from .sharding import ShardPlan


class ConservationError(RuntimeError):
    """A sharded run lost, duplicated, or fabricated design points."""


def merge_outcomes(
    plan: ShardPlan, outcomes: Sequence[ShardOutcome]
) -> List[DesignPoint]:
    """Concatenate one outcome per planned shard into global order.

    Raises :class:`ConservationError`, naming the shard, unless every
    planned shard has exactly one outcome whose record indices are the
    shard's own, in order, and no outcome belongs to an unplanned shard.
    """
    by_shard: Dict[int, List[ShardOutcome]] = {}
    for outcome in outcomes:
        by_shard.setdefault(outcome.shard, []).append(outcome)
    records: List[DesignPoint] = []
    for shard in plan.shards:
        found = by_shard.pop(shard.index, [])
        if len(found) != 1:
            raise ConservationError(
                f"conservation: shard {shard.index} has {len(found)} "
                "outcomes, not 1 (dropped or duplicated)"
            )
        if [r.index for r in found[0].records] != list(shard.indices):
            raise ConservationError(
                f"conservation: shard {shard.index}'s records are not its "
                f"planned indices {shard.start}..{shard.indices.stop - 1} "
                "(missing or foreign points)"
            )
        records += found[0].records
    if by_shard:
        raise ConservationError(f"conservation: shard {min(by_shard)} "
                                "is not in the plan")
    return records
