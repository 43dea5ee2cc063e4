"""Sharded parallel DSE engine (checkpoint/resume, Pareto merging).

The paper's headline workflow sweeps up to 75,000 legal design points
per benchmark; after estimator training every point is independent, so
this package turns :func:`repro.dse.explore` from a serial loop into a
job engine:

* :mod:`~repro.runtime.sharding` — one central seeded sample, split into
  N disjoint contiguous shards (bit-identical to serial for every N);
* :mod:`~repro.runtime.pool` — one shard runner, mapped over the
  shards in-process or on a fork-after-training process pool, with
  heartbeats into :mod:`repro.obs`;
* :mod:`~repro.runtime.checkpoint` — append-only per-shard JSONL
  checkpoints and kill/resume;
* :mod:`~repro.runtime.merge` — one outcome per shard, concatenated in
  plan order under conservation checks.

See ``docs/runtime.md`` for the architecture and the determinism and
resume guarantees.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    ShardWriter,
    estimate_from_doc,
    estimate_to_doc,
    read_manifest,
)
from .merge import ConservationError, merge_outcomes
from .pool import (
    RunOutcome,
    ShardOutcome,
    fork_available,
    joined_outcome,
    run_plan,
    run_shard,
)
from .sharding import (
    Shard,
    ShardPlan,
    plan_shards,
    require_positive,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "ConservationError",
    "RunOutcome",
    "Shard",
    "ShardOutcome",
    "ShardPlan",
    "ShardWriter",
    "estimate_from_doc",
    "estimate_to_doc",
    "fork_available",
    "joined_outcome",
    "merge_outcomes",
    "plan_shards",
    "read_manifest",
    "require_positive",
    "run_plan",
    "run_shard",
]
