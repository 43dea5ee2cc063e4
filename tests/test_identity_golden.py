"""Identity golden: digests that pin the estimator, synthesis and simulation.

``tests/golden/identity.json`` holds SHA-256 digests of ``repr`` strings
(never pickles, so module paths cannot move them):

* ``designs`` — 12 seeded points (``random.Random(7)``, one stream for
  all) of each of the 9 benchmarks (Table II plus the extensions) on the
  default and the small dataset. For each built design: the synthesis
  report (``repr(synthesize(d, MAIA))``), the simulated cycles and
  per-controller cycles, and the per-design :class:`Estimate` — cycles,
  seconds, every :class:`AreaEstimate` field down to the raw ``Counts``,
  and :func:`estimate_cycles`' per-controller breakdown. A point whose
  build raises :class:`~repro.ir.IRError` is recorded as illegal.
* ``explore`` — index, params, cycles, seconds and area of every point
  of ``explore(max_points=300, seed=3)`` (the compiled class plans) on
  each Table II benchmark.
* ``fronts`` — the Pareto-front indices of ``explore(max_points=3000,
  seed=3)`` on each Table II benchmark (kept as lists, not digests).
* ``shards`` — the checkpoint directory (file names and bytes) of a
  1,500-point, 3-shard sweep of each Table II benchmark. The serial run,
  ``workers=2``, a resume after ``shard-0000.jsonl`` is cut mid-line and
  three ``shard_range`` runs into one directory must all give it, and
  :func:`~repro.dse.merge_checkpoints` of the ranged directory must
  return the serial points.
* ``searches`` — on a fresh plan-pricing estimator per Table II
  benchmark, ``explore(max_points=1000, seed=3)`` then
  :func:`~repro.dse.local_search` at budget 300 for seeds 1 and 2, so
  the walks hit the point cache and price single points. Each search's
  evaluations, restarts, trajectory, best params and the best point's
  (cycles, ALMs, DSPs, BRAMs) — rounded fields, as in ``estimates.json``.

One digest per (benchmark, dataset) and per explored benchmark, so a
failure names where a number moved. Any refactor of the IR, estimator,
plans, synthesis or simulator must leave every digest unchanged.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python -m tests.test_identity_golden
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from pathlib import Path

from repro.apps import all_benchmarks
from repro.apps.extras import all_extras
from repro.dse import explore, local_search, merge_checkpoints
from repro.estimation import Estimator, estimate_cycles
from repro.ir import IRError
from repro.sim import simulate
from repro.synth import synthesize
from repro.target import MAIA

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "identity.json"
SEED = 7
PER_DATASET = 12
EXPLORE_POINTS = 300
EXPLORE_SEED = 3
FRONT_POINTS = 3000
SHARD_POINTS = 1500
SHARD_COUNT = 3
SEARCH_EXPLORE_POINTS = 1000
SEARCH_BUDGET = 300
SEARCH_SEEDS = (1, 2)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def design_lines(bench, dataset, points, estimator: Estimator):
    """One ``repr`` line per point: substrate and per-design estimate."""
    for params in points:
        try:
            design = bench.build(dataset, **params)
        except IRError:
            yield repr((params, "illegal"))
            continue
        sim = simulate(design, MAIA)
        est = estimator.estimate(design)
        yield repr((
            params, synthesize(design, MAIA), sim.cycles, sim.per_controller,
            est.cycles, est.seconds, est.area,
            estimate_cycles(design, MAIA).per_controller,
        ))


def design_digests(estimator: Estimator) -> dict:
    """``bench/dataset`` -> digest of its sampled designs."""
    rng = random.Random(SEED)
    out = {}
    for bench in all_benchmarks() + all_extras():
        for label in ("default", "small"):
            dataset = getattr(bench, f"{label}_dataset")()
            points = bench.param_space(dataset).sample(rng, PER_DATASET)
            out[f"{bench.name}/{label}"] = _sha(
                design_lines(bench, dataset, points, estimator)
            )
    return out


def explore_digests(estimator: Estimator) -> dict:
    """Table II benchmark -> digest of its seeded plan-priced sweep."""
    out = {}
    for bench in all_benchmarks():
        result = explore(
            bench, estimator, max_points=EXPLORE_POINTS, seed=EXPLORE_SEED
        )
        out[bench.name] = _sha(
            repr((p.index, p.params, None if p.estimate is None else (
                p.estimate.cycles, p.estimate.seconds, p.estimate.area)))
            for p in result.points
        )
    return out


def front_indices(estimator: Estimator) -> dict:
    """Table II benchmark -> Pareto-front indices of its seeded sweep."""
    return {
        bench.name: [p.index for p in explore(
            bench, estimator, max_points=FRONT_POINTS, seed=EXPLORE_SEED
        ).pareto]
        for bench in all_benchmarks()
    }


def dir_digest(directory: Path) -> str:
    """SHA-256 of a directory's file names and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def checkpointed(bench, estimator: Estimator, directory: Path, **kwargs):
    """The golden's checkpointed sweep of ``bench`` into ``directory``."""
    return explore(
        bench, estimator, max_points=SHARD_POINTS, seed=EXPLORE_SEED,
        shards=SHARD_COUNT, checkpoint_dir=directory, **kwargs,
    )


def cut_mid_line(path: Path) -> None:
    """Truncate a shard file halfway through its middle line."""
    lines = path.read_bytes().splitlines(keepends=True)
    keep = len(lines) // 2
    size = sum(map(len, lines[:keep])) + len(lines[keep]) // 2
    with path.open("r+b") as fh:
        fh.truncate(size)


def shard_digests(estimator: Estimator, root: Path) -> dict:
    """Table II benchmark -> digest of its serial checkpoint directory."""
    out = {}
    for bench in all_benchmarks():
        checkpointed(bench, estimator, root / bench.name)
        out[bench.name] = dir_digest(root / bench.name)
    return out


def search_lines(bench, estimator: Estimator):
    """One ``repr`` line per seeded search after the seeded sweep."""
    explore(bench, estimator, max_points=SEARCH_EXPLORE_POINTS,
            seed=EXPLORE_SEED)
    for seed in SEARCH_SEEDS:
        result = local_search(bench, estimator, budget=SEARCH_BUDGET,
                              seed=seed)
        best = result.best
        yield repr((
            seed, result.evaluations, result.restarts, result.trajectory,
            None if best is None else (
                best.params, best.cycles, best.alms, best.estimate.dsps,
                best.estimate.brams),
        ))


def search_digests(estimator: Estimator) -> dict:
    """Table II benchmark -> digest of its searches on a fresh estimator."""
    return {
        bench.name: _sha(search_lines(bench, views(estimator)[1]))
        for bench in all_benchmarks()
    }


def views(estimator: Estimator):
    """The per-design oracle and a plan-pricing estimator on one model."""
    kwargs = dict(templates=estimator.templates,
                  corrections=estimator.corrections)
    return (Estimator(estimator.board, cache=False, **kwargs),
            Estimator(estimator.board, **kwargs))


def golden_doc(estimator: Estimator, root: Path) -> dict:
    cold, cached = views(estimator)
    return {
        "designs": design_digests(cold),
        "explore": explore_digests(cached),
        "fronts": front_indices(cached),
        "shards": shard_digests(cached, root),
        "searches": search_digests(estimator),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _mismatches(want: dict, got: dict):
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def test_designs_match_identity_golden(estimator):
    cold, _ = views(estimator)
    moved = _mismatches(load_golden()["designs"], design_digests(cold))
    assert not moved, moved


def test_explore_matches_identity_golden(estimator):
    _, cached = views(estimator)
    moved = _mismatches(load_golden()["explore"], explore_digests(cached))
    assert not moved, moved


def test_fronts_match_identity_golden(estimator):
    _, cached = views(estimator)
    assert front_indices(cached) == load_golden()["fronts"]


def test_searches_match_identity_golden(estimator):
    moved = _mismatches(load_golden()["searches"], search_digests(estimator))
    assert not moved, moved


def test_shard_files_match_identity_golden(estimator, tmp_path):
    """Every way of running the checkpointed sweep writes the same bytes."""
    _, cached = views(estimator)
    want = load_golden()["shards"]
    moved = []
    for bench in all_benchmarks():
        root = tmp_path / bench.name
        serial = checkpointed(bench, cached, root / "serial")
        checkpointed(bench, cached, root / "workers2", workers=2)
        shutil.copytree(root / "serial", root / "resumed")
        cut_mid_line(root / "resumed" / "shard-0000.jsonl")
        checkpointed(bench, cached, root / "resumed", resume=True)
        for lo in range(SHARD_COUNT):
            checkpointed(bench, cached, root / "ranged",
                         shard_range=(lo, lo + 1))
        for variant in ("serial", "workers2", "resumed", "ranged"):
            if dir_digest(root / variant) != want.get(bench.name):
                moved.append(f"{bench.name}/{variant}")
        merged = merge_checkpoints(root / "ranged", cached)
        if merged.points != serial.points:
            moved.append(f"{bench.name}/merged")
    assert not moved, moved


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        doc = golden_doc(Estimator(MAIA, training_samples=120, seed=7),
                         Path(root))
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
