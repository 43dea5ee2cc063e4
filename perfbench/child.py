"""One fresh interpreter: set up an estimator, run one timed call, check it.

Usage: ``python3 perfbench/child.py WORKLOAD SEED MODE`` with ``src`` on
``PYTHONPATH``. MODE is ``plain`` (untraced), ``metrics``
(``obs.enable(metrics=True)`` around the call) or ``traced`` (span
wrappers installed; prints per-layer numbers). Prints one JSON line with
raw wall times and the median host-speed sample over each of them.

Every ``repro explore`` invocation starts in a new interpreter with empty
estimation caches, so every timed call here does too.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import ledger


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    out = {"mode": mode}
    with ledger.SpeedSampler() as speed:
        _run(out, name, seed, mode, speed)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def _run(out, name, seed, mode, speed) -> None:
    """Set up, run the call and check it, timing each step into ``out``."""
    start = time.perf_counter()

    import workloads
    from repro import obs
    from repro.apps import get_benchmark
    from repro.estimation import estimator as estimator_mod
    from repro.estimation.estimator import Estimator
    from repro.target.board import MAIA

    spec = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed)
    bench = get_benchmark(spec.bench)

    setup_rec = None
    if mode == "traced":
        from tracer import Recorder
        setup_rec = Recorder()
        setup_rec.wrap(estimator_mod, "characterize_templates",
                       "setup.characterize")
        setup_rec.wrap(estimator_mod, "train_corrections", "setup.train")
        with setup_rec.call("setup"):
            estimator = Estimator(MAIA)
        setup_rec.unwrap_all()
    else:
        estimator = Estimator(MAIA)
    setup_end = time.perf_counter()
    out["setup_s"] = setup_end - start
    out["setup_sample_s"] = speed.sample_s(start, setup_end)

    workloads.WORK_DIR.mkdir(exist_ok=True)
    if mode == "traced":
        import layers
        out["layers"] = layers.traced_run(
            name, seed, spec, inputs, bench, estimator, setup_rec
        )
        out.update(out["layers"].pop("_call"))
        out["call_sample_s"] = speed.sample_s(setup_end, time.perf_counter())
        return
    if mode == "metrics":
        obs.enable(metrics=True)
    call, call_start, call_end = _timed_call(spec, inputs, bench, estimator)
    obs.disable()
    points = spec.planned_points if call is None else call.points
    out.update(
        wall_s=call_end - call_start,
        call_sample_s=speed.sample_s(call_start, call_end),
        points=points,
        attempted=points,
        failed=(points if call is None else
                workloads.check_call(name, seed, bench, estimator, call)),
    )


def _timed_call(spec, inputs, bench, estimator):
    """Run the workload's call: ``(call or None if it raised, start, end)``."""
    import workloads

    ckpt = (Path(tempfile.mkdtemp(dir=workloads.WORK_DIR))
            if spec.checkpoint else None)
    call = None
    try:
        start = time.perf_counter()
        try:
            call = workloads.run_call(spec, inputs, bench, estimator, ckpt)
        except Exception:  # the whole call failed: every point did
            traceback.print_exc()
        end = time.perf_counter()
    finally:
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)
    return call, start, end


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
