"""The traced run: wrap each layer's entry point and derive per-layer metrics.

Layers and the names wrapped (each patched where its caller looks it up):

========================  ==============================================
``runtime.plan``          ``repro.dse.explorer.plan_shards``
``runtime.pool``          ``repro.dse.explorer.run_plan`` (engine loop)
``runtime.checkpoint``    ``CheckpointStore.begin``, ``ShardWriter.{write,done,close}``
``runtime.merge``         ``repro.dse.explorer.merge_outcomes``
``ir.build``              the benchmark instance's ``build``
``ir.finalize``           ``repro.ir.graph.Design.finalize``
``estimation.cycles``     ``repro.estimation.estimator.estimate_cycles``
``estimation.area_raw``   ``repro.estimation.area.raw_area``, ``repro.estimation.features.design_features``
``estimation.area_nn``    ``CorrectionModels.predict_batch`` and ``predict_*``
``dse.pareto``            ``repro.dse.explorer.pareto_front``
``dse.search``            ``repro.dse.search.local_search``
========================  ==============================================

Forked workers record only into their own memory, so a pooled workload
gets its worker-side layers from a serial pass over the same plan and
only the ``runtime.pool.*`` numbers from the pooled pass.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import ledger
import workloads
from repro.dse import explorer, search
from repro.estimation import area, estimator as estimator_mod, features
from repro.estimation.estimator import Estimator
from repro.estimation.train import CorrectionModels
from repro.ir.graph import Design
from repro.runtime.checkpoint import CheckpointStore, ShardWriter
from tracer import Recorder

_NN_METHODS = (
    "predict_batch", "predict_routing_luts", "predict_duplicated_regs",
    "predict_unavailable_luts", "predict_duplicated_brams",
)


class _Probe:
    """A recorder with every layer wrapped, plus what the wrappers saw."""

    def __init__(self, bench) -> None:
        self.rec = Recorder()
        self.nodes = 0
        self.designs_built = 0
        self.pool: List[Dict[str, float]] = []
        rec = self.rec
        rec.wrap(explorer, "plan_shards", "runtime.plan")
        rec.wrap(explorer, "run_plan", "runtime.pool", self._on_run)
        rec.wrap(explorer, "merge_outcomes", "runtime.merge")
        rec.wrap(explorer, "pareto_front", "dse.pareto")
        rec.wrap(search, "local_search", "dse.search")
        rec.wrap(CheckpointStore, "begin", "runtime.checkpoint")
        for method in ("write", "done", "close"):
            rec.wrap(ShardWriter, method, "runtime.checkpoint")
        rec.wrap(bench, "build", "ir.build", self._on_build)
        rec.wrap(Design, "finalize", "ir.finalize")
        rec.wrap(estimator_mod, "estimate_cycles", "estimation.cycles")
        rec.wrap(area, "raw_area", "estimation.area_raw")
        rec.wrap(features, "design_features", "estimation.area_raw")
        for method in _NN_METHODS:
            rec.wrap(CorrectionModels, method, "estimation.area_nn")

    def _on_build(self, design, _seconds: float) -> None:
        self.designs_built += 1
        self.nodes += len(design.nodes)

    def _on_run(self, run, seconds: float) -> None:
        busy = [(o.worker, o.elapsed_s) for o in run.outcomes]
        metrics = ledger.pool_metrics(seconds, run.workers, busy)
        metrics.update(wall_s=seconds, steals=run.steals)
        self.pool.append(metrics)

    def close(self) -> None:
        self.rec.unwrap_all()


def _per_point_us(seconds: float, count: int) -> float:
    return 1e6 * seconds / count if count else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _traced_pass(name, seed, spec, inputs, bench, estimator, workers=None):
    """One traced call (plus checks) on a fresh probe and checkpoint dir.

    Returns ``(call, probe, wall_s, failed, checkpoint)`` where
    ``checkpoint`` holds the write cost, the bytes written and the time
    to resume the finished directory (zeros without a checkpoint).
    """
    probe = _Probe(bench)
    ckpt = (Path(tempfile.mkdtemp(dir=workloads.WORK_DIR))
            if spec.checkpoint else None)
    checkpoint = {"write_us_per_point": 0.0, "bytes_per_point": 0.0,
                  "resume_s": 0.0}
    try:
        start = time.perf_counter()
        call = workloads.run_call(spec, inputs, bench, estimator, ckpt,
                                  workers=workers, recorder=probe.rec)
        wall = time.perf_counter() - start
        failed = workloads.check_call(name, seed, bench, estimator, call)
        if ckpt is not None:
            written = call.result.legal_sampled
            self_s = ledger.layer_self_times(probe.rec.tuples())
            checkpoint["write_us_per_point"] = _per_point_us(
                self_s.get("runtime.checkpoint", 0.0), written)
            checkpoint["bytes_per_point"] = _dir_bytes(ckpt) / written
            start = time.perf_counter()
            resumed = explorer.explore(
                bench, estimator, max_points=spec.points,
                seed=inputs.explore_seed, shards=spec.workers,
                workers=workers or spec.workers,
                checkpoint_dir=ckpt, resume=True,
            )
            checkpoint["resume_s"] = time.perf_counter() - start
            failed += ledger.count_mismatches(
                [workloads.row(p.estimate) for p in call.result.points],
                [workloads.row(p.estimate) for p in resumed.points],
            )
    finally:
        probe.close()
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)
    return call, probe, wall, failed, checkpoint


def traced_run(name, seed, spec, inputs, bench, estimator: Estimator,
               setup_rec: Recorder) -> Dict[str, object]:
    """Run the workload traced; return per-layer metrics plus ``_call``.

    ``_call`` carries the traced wall of the configuration the untraced
    runs time (for ``trace.overhead_ratio``) and the points attempted and
    failed over every traced call.
    """
    call, probe, wall, failed, checkpoint = _traced_pass(
        name, seed, spec, inputs, bench, estimator, workers=1)
    attempted = call.points
    pool = probe.pool[0]
    cache = estimator.caches.stats()
    if spec.workers > 1:
        # A fresh cache bundle on the trained models, so the pooled pass
        # starts as cold as an untraced run does.
        pooled_est = Estimator(estimator.board,
                               templates=estimator.templates,
                               corrections=estimator.corrections)
        pooled, pooled_probe, wall, pooled_failed, _ = _traced_pass(
            name, seed, spec, inputs, bench, pooled_est)
        pool = pooled_probe.pool[0]
        attempted += pooled.points
        failed += pooled_failed

    spans = probe.rec.tuples()
    setup = ledger.layer_self_times(setup_rec.tuples())
    self_s = ledger.layer_self_times(spans)
    counts = ledger.layer_counts(spans)
    builds = counts.get("ir.build", 0)
    designs = counts.get("estimation.cycles", 0)
    evaluations = sum(s.evaluations for s in call.searches)
    search_s = sum(end - start for layer, start, end, _ in spans
                   if layer == "dse.search")
    return {
        "setup.characterize_s": setup.get("setup.characterize", 0.0),
        "setup.train_s": setup.get("setup.train", 0.0),
        "runtime.plan_s": self_s.get("runtime.plan", 0.0),
        "ir.builds": builds,
        "ir.build_us_per_point": _per_point_us(
            self_s.get("ir.build", 0.0), builds),
        "ir.finalize_us_per_point": _per_point_us(
            self_s.get("ir.finalize", 0.0), builds),
        "ir.nodes_per_design": (probe.nodes / probe.designs_built
                                if probe.designs_built else 0.0),
        "estimation.designs": designs,
        "estimation.cycles_us_per_point": _per_point_us(
            self_s.get("estimation.cycles", 0.0), designs),
        "estimation.area_raw_us_per_point": _per_point_us(
            self_s.get("estimation.area_raw", 0.0), designs),
        "estimation.area_nn_us_per_point": _per_point_us(
            self_s.get("estimation.area_nn", 0.0), designs),
        "estimation.cache.template_hit_ratio": cache["template"]["hit_rate"],
        "estimation.cache.schedule_hit_ratio": cache["schedule"]["hit_rate"],
        "estimation.cache.points_hit_ratio": cache["points"]["hit_rate"],
        "runtime.pool.wall_s": pool["wall_s"],
        "runtime.pool.worker_busy_share": pool["worker_busy_share"],
        "runtime.pool.dispatch_overhead_s": pool["dispatch_overhead_s"],
        "runtime.pool.steals": pool["steals"],
        "runtime.checkpoint.write_us_per_point":
            checkpoint["write_us_per_point"],
        "runtime.checkpoint.bytes_per_point": checkpoint["bytes_per_point"],
        "runtime.checkpoint.resume_s": checkpoint["resume_s"],
        "runtime.merge_s": self_s.get("runtime.merge", 0.0),
        "dse.pareto_s": self_s.get("dse.pareto", 0.0),
        "dse.search.evaluations": evaluations,
        "dse.search.us_per_eval": _per_point_us(search_s, evaluations),
        "trace.unattributed_share": ledger.unattributed_share(spans),
        "_call": {"wall_s": wall, "points": call.points,
                  "attempted": attempted, "failed": min(failed, attempted)},
    }
