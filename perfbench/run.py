"""DSE ledger: end-to-end and per-layer cost of three sweep workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-kmeans --seed 1 --seconds 40 --trace 0

Each timed call runs in a fresh interpreter (``child.py``) with empty
estimation caches, as every ``repro explore`` invocation does. Calls are
repeated until ``--seconds`` is used up and the medians are reported.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced call. Every call's estimates are checked
(golden digest for seed 1, a cold re-estimate of a sample for any seed).
The last stdout line is one JSON object; the exit code is non-zero when
an estimate is wrong or the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("sweep-kmeans", "sweep-dotproduct-w2", "session-blackscholes")
#: A run, however slow its calls, gives up this many seconds after it
#: started.
DEADLINE_S = 170

#: Unit of every per-layer metric, in the order the traced run prints them.
PER_LAYER_UNITS = {
    "setup.characterize_s": "s",
    "setup.train_s": "s",
    "runtime.plan_s": "s",
    "ir.builds": "count",
    "ir.build_us_per_point": "us",
    "ir.finalize_us_per_point": "us",
    "ir.nodes_per_design": "count",
    "estimation.designs": "count",
    "estimation.cycles_us_per_point": "us",
    "estimation.area_raw_us_per_point": "us",
    "estimation.area_nn_us_per_point": "us",
    "estimation.cache.template_hit_ratio": "ratio",
    "estimation.cache.schedule_hit_ratio": "ratio",
    "estimation.cache.points_hit_ratio": "ratio",
    "runtime.pool.wall_s": "s",
    "runtime.pool.worker_busy_share": "ratio",
    "runtime.pool.dispatch_overhead_s": "s",
    "runtime.pool.steals": "count",
    "runtime.checkpoint.write_us_per_point": "us",
    "runtime.checkpoint.bytes_per_point": "B",
    "runtime.checkpoint.resume_s": "s",
    "runtime.merge_s": "s",
    "dse.pareto_s": "s",
    "dse.search.evaluations": "count",
    "dse.search.us_per_eval": "us",
    "trace.unattributed_share": "ratio",
    "obs.metrics_on_slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calibration_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong estimate)."""


def run_child(workload: str, seed: int, mode: str,
              timeout_s: float) -> Dict[str, object]:
    """One fresh interpreter running one timed call; its JSON report.

    The child runs in its own process group, so a timeout also kills any
    pool workers it forked.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout_s, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} call of {workload} timed out")
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} call of {workload} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the children one run needs; return (plain, traced, metrics).

    Plain calls repeat while the next one is expected to finish within
    ``seconds`` (at least one). A traced run first makes one traced and
    one metrics-on call.
    """
    start = time.perf_counter()

    def child(mode: str) -> Dict[str, object]:
        left = DEADLINE_S - (time.perf_counter() - start)
        return run_child(workload, seed, mode, left)

    traced = metrics = None
    if trace:
        traced = child("traced")
        metrics = child("metrics")
    plain: List[Dict[str, object]] = []
    while True:
        t0 = time.perf_counter()
        plain.append(child("plain"))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return plain, traced, metrics


def ref_wall(call) -> float:
    """A call's wall time at reference host speed."""
    return ledger.to_reference_s(call["wall_s"], call["call_sample_s"])


def ref_setup(call) -> float:
    """A call's set-up time at reference host speed."""
    return ledger.to_reference_s(call["setup_s"], call["setup_sample_s"])


def end_to_end(plain) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics: medians over the plain calls."""
    failed = sum(c["failed"] for c in plain)
    attempted = sum(c["attempted"] for c in plain)
    return {
        "points_per_s": {
            "value": statistics.median(c["points"] / ref_wall(c) for c in plain),
            "unit": "1/s"},
        "setup_s": {
            "value": statistics.median(ref_setup(c) for c in plain),
            "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(c["rss_mb"] for c in plain),
            "unit": "MB"},
        "pass_ratio": {
            "value": 1.0 - ledger.failed_ratio(failed, attempted),
            "unit": "ratio"},
    }


def per_layer(plain, traced, metrics, calibration_s: float):
    """Per-layer metrics of the traced call, with overhead ratios."""
    untraced_wall = statistics.median(ref_wall(c) for c in plain)
    values = dict(traced["layers"])
    values["obs.metrics_on_slowdown"] = ref_wall(metrics) / untraced_wall
    values["trace.overhead_ratio"] = ref_wall(traced) / untraced_wall
    values["host.calibration_s"] = calibration_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "calibration_s": ledger.calibrate()}
    try:
        plain, traced, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    calls = plain + [c for c in (traced, metrics) if c is not None]
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    if args.trace:
        result = per_layer(plain, traced, metrics, host["calibration_s"])
    else:
        result = end_to_end(plain)

    print(f"host: {json.dumps(host)}")
    print(f"{args.workload} seed={args.seed}: {len(calls)} calls, "
          f"{attempted} points attempted, {failed} failed, "
          f"failed_ratio={ledger.failed_ratio(failed, attempted):g}")
    print("  raw wall-clock per plain call (points/s, setup s): " + ", ".join(
        f"{c['points'] / c['wall_s']:.1f}/{c['setup_s']:.2f}" for c in plain))
    for name, metric in result.items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
