"""Merging shard results into the global point list.

:func:`merge_outcomes` reassembles per-shard records into the exact
global sample order (the serial explorer's order) while proving
conservation: every planned global index present exactly once, fresh
plus restored counts summing to the plan, nothing dropped or duplicated.
Violations raise :class:`ConservationError` — a wrong parallel merge
must never masquerade as a smaller design space. The Pareto front is
then computed once over the merged list (:mod:`repro.dse.pareto`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .checkpoint import PointRecord, ShardState
from .pool import ShardOutcome
from .sharding import ShardPlan


def outcomes_from_states(
    plan: ShardPlan, states: Dict[int, "ShardState"]
) -> List[ShardOutcome]:
    """Wrap checkpoint-restored shard states as mergeable outcomes.

    The merge-only path (``repro merge-checkpoints``): nothing is
    estimated, every record counts as restored, and :func:`merge_outcomes`
    plus :meth:`Conservation.verify` then prove the union of the shard
    files is exactly the planned point set — any missing or duplicated
    index (an absent host, a half-swept range) is a hard error.
    """
    outcomes: List[ShardOutcome] = []
    for shard in plan.shards:
        state = states.get(shard.index, ShardState())
        outcome = ShardOutcome(
            shard=shard.index,
            planned=len(shard),
            records=sorted(state.records.values(), key=lambda r: r.index),
            restored=len(state.records),
        )
        outcomes.append(outcome)
    return outcomes


class ConservationError(RuntimeError):
    """A sharded run lost, duplicated, or fabricated design points."""


@dataclass
class Conservation:
    """Point accounting for one sharded run (the no-loss proof)."""

    planned: int = 0
    merged: int = 0
    estimated: int = 0
    restored: int = 0
    illegal: int = 0
    valid: int = 0
    unfit: int = 0
    duplicate_indices: int = 0
    missing_indices: int = 0

    def verify(self) -> None:
        """Raise :class:`ConservationError` unless the books balance."""
        problems: List[str] = []
        if self.duplicate_indices:
            problems.append(
                f"{self.duplicate_indices} duplicated point indices"
            )
        if self.missing_indices:
            problems.append(f"{self.missing_indices} missing point indices")
        if self.merged != self.planned:
            problems.append(
                f"merged {self.merged} points but planned {self.planned}"
            )
        if self.estimated + self.restored != self.planned:
            problems.append(
                f"estimated ({self.estimated}) + restored "
                f"({self.restored}) != planned ({self.planned})"
            )
        if self.illegal + self.valid + self.unfit != self.planned:
            problems.append(
                f"outcome counts (illegal {self.illegal} + valid "
                f"{self.valid} + unfit {self.unfit}) != planned "
                f"({self.planned})"
            )
        if problems:
            raise ConservationError(
                "sharded explore dropped or duplicated points: "
                + "; ".join(problems)
            )

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (checkpoint/bench artifacts)."""
        return {
            "planned": self.planned,
            "merged": self.merged,
            "estimated": self.estimated,
            "restored": self.restored,
            "illegal": self.illegal,
            "valid": self.valid,
            "unfit": self.unfit,
        }


def merge_outcomes(
    plan: ShardPlan, outcomes: Sequence[ShardOutcome]
) -> Tuple[List[PointRecord], Conservation]:
    """Reassemble shard outcomes into global order, with accounting.

    Returns records sorted by global index (the serial enumeration
    order) and the filled-in :class:`Conservation`; call
    :meth:`Conservation.verify` to enforce it.
    """
    stats = Conservation(planned=plan.total_points)
    expected = {index for shard in plan.shards for index in shard.indices}
    seen: Dict[int, PointRecord] = {}
    for outcome in outcomes:
        stats.estimated += outcome.estimated
        stats.restored += outcome.restored
        for record in outcome.records:
            if record.index in seen or record.index not in expected:
                stats.duplicate_indices += 1
                continue
            seen[record.index] = record
            if record.illegal:
                stats.illegal += 1
            elif record.estimate.fits():
                stats.valid += 1
            else:
                stats.unfit += 1
    stats.missing_indices = len(expected) - len(seen)
    stats.merged = len(seen)
    records = [seen[index] for index in sorted(seen)]
    return records, stats

