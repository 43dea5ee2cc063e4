"""The three DSE ledger workloads: inputs, the timed call, correctness.

Importing this module imports ``repro``; ``child.py`` imports it only
after it has started the set-up clock, so import time counts as set-up.
Why each workload was chosen is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import ledger
from repro.dse import explorer, search
from repro.estimation.estimator import Estimate, Estimator
from repro.ir.node import IRError

#: The seed whose results are pinned by the golden digests.
DEFAULT_SEED = 1

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Scratch space for checkpoint directories, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Points of each run's result re-estimated through the uncached path.
RECHECK_POINTS = 16


@dataclass(frozen=True)
class Workload:
    """One sweep configuration; every field is fixed, only the seed varies."""

    bench: str
    points: int
    workers: int = 1
    checkpoint: bool = False
    searches: int = 0
    search_budget: int = 0

    @property
    def planned_points(self) -> int:
        """Points one call attempts when every search spends its budget."""
        return self.points + self.searches * self.search_budget


WORKLOADS: Dict[str, Workload] = {
    "sweep-kmeans": Workload("kmeans", points=700),
    "sweep-dotproduct-w2": Workload(
        "dotproduct", points=6000, workers=2, checkpoint=True
    ),
    "session-blackscholes": Workload(
        "blackscholes", points=1000, searches=4, search_budget=400
    ),
}


@dataclass(frozen=True)
class Inputs:
    """What the seed generates: the explore seed and one seed per search."""

    explore_seed: int
    search_seeds: Tuple[int, ...]


def make_inputs(name: str, seed: int) -> Inputs:
    """Derive a workload's inputs from the benchmark seed, deterministically."""
    rng = random.Random(f"{name}:{seed}")
    explore_seed = rng.randrange(2**31)
    searches = tuple(
        rng.randrange(2**31) for _ in range(WORKLOADS[name].searches)
    )
    return Inputs(explore_seed, searches)


@dataclass
class Call:
    """Everything one timed call produced."""

    result: explorer.ExplorationResult
    front: list
    searches: List[search.SearchResult] = field(default_factory=list)

    @property
    def points(self) -> int:
        """Completed points: sampled legal points plus search evaluations."""
        return self.result.legal_sampled + sum(
            s.evaluations for s in self.searches
        )


def run_call(
    spec: Workload,
    inputs: Inputs,
    bench,
    estimator: Estimator,
    checkpoint_dir: Optional[Path] = None,
    workers: Optional[int] = None,
    recorder=None,
) -> Call:
    """The timed work: one ``explore``, its Pareto front, then the searches.

    ``recorder`` opens a root span around each public call; ``workers``
    overrides the workload's worker count (the serial traced pass).
    """
    root = recorder.call if recorder is not None else (lambda _: nullcontext())
    with root("explore"):
        result = explorer.explore(
            bench, estimator,
            max_points=spec.points,
            seed=inputs.explore_seed,
            shards=spec.workers,
            workers=spec.workers if workers is None else workers,
            checkpoint_dir=checkpoint_dir,
        )
    with root("pareto"):
        front = result.pareto
    call = Call(result, front)
    for seed in inputs.search_seeds:
        with root("search"):
            call.searches.append(search.local_search(
                bench, estimator, budget=spec.search_budget, seed=seed,
            ))
    return call


def row(estimate: Estimate) -> Tuple:
    """The compared fields of one estimate."""
    return (estimate.cycles, estimate.alms, estimate.dsps, estimate.brams)


def point_rows(call: Call) -> List[Tuple]:
    """Golden rows of an explore result: the estimate plus front membership."""
    on_front = {id(p) for p in call.front}
    return [row(p.estimate) + (id(p) in on_front,)
            for p in call.result.points]


def params_digest(call: Call) -> str:
    """SHA-256 of the sampled parameter list, which must match exactly."""
    params = [p.params for p in call.result.points]
    return hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()


def search_rows(call: Call) -> List[list]:
    """Per search: evaluations, best parameters and best estimate row."""
    out = []
    for s in call.searches:
        best = s.best
        out.append([
            s.evaluations,
            None if best is None else best.params,
            None if best is None else list(row(best.estimate)),
        ])
    return out


def golden_doc(name: str, call: Call) -> Dict[str, object]:
    """The golden digest of ``call`` as written by ``make_golden.py``."""
    return {
        "workload": name,
        "seed": DEFAULT_SEED,
        "params_sha256": params_digest(call),
        "points": [list(r) for r in point_rows(call)],
        "searches": search_rows(call),
    }


def load_golden(name: str) -> Dict[str, object]:
    """The committed golden digest of workload ``name``."""
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def golden_failures(golden: Dict[str, object], call: Call) -> int:
    """Points of ``call`` that disagree with the golden digest."""
    rows = point_rows(call)
    if golden["params_sha256"] != params_digest(call):
        failed = max(len(rows), 1)
    else:
        want = [tuple(r) for r in golden["points"]]  # type: ignore[union-attr]
        failed = ledger.count_mismatches(want, rows)
    want_searches = golden["searches"]
    got_searches = search_rows(call)
    if len(want_searches) != len(got_searches):  # type: ignore[arg-type]
        failed += 1
    for want, got, s in zip(want_searches, got_searches, call.searches):  # type: ignore[arg-type]
        same = want[:2] == got[:2] and ledger.rows_match(
            _as_row(want[2]), _as_row(got[2])
        )
        if not same:
            failed += max(s.evaluations, 1)
    return failed


def _as_row(values: Optional[list]) -> ledger.Row:
    return None if values is None else tuple(values)


def recheck(bench, estimator: Estimator, dataset, expected) -> int:
    """Re-estimate ``(params, row or None)`` pairs; return how many fail.

    An :class:`IRError` is the IR-illegal outcome and matches an expected
    ``None``; any other exception is a failure.
    """
    failed = 0
    for params, want in expected:
        try:
            got: object = row(estimator.estimate(bench.build(dataset, **params)))
        except IRError:
            got = None
        except Exception as exc:  # a point that crashes is a failed point
            traceback.print_exc()
            got = exc
        if not ledger.rows_match(want, got):
            failed += 1
    return failed


def check_call(name: str, seed: int, bench, estimator: Estimator, call: Call) -> int:
    """Failed points of one call: golden digest plus a cold re-estimate."""
    failed = 0
    if seed == DEFAULT_SEED:
        failed += golden_failures(load_golden(name), call)
    cold = Estimator(
        estimator.board,
        templates=estimator.templates,
        corrections=estimator.corrections,
        cache=False,
    )
    points = call.result.points
    sample = random.Random(seed).sample(
        points, min(RECHECK_POINTS, len(points))
    )
    expected = [(p.params, row(p.estimate)) for p in sample]
    expected += [(s.best.params, row(s.best.estimate))
                 for s in call.searches if s.best is not None]
    failed += recheck(bench, cold, call.result.dataset, expected)
    return min(failed, call.points)
