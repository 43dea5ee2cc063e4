"""Regenerate the golden digests the ledger checks seed 1 against.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_golden.py [WORKLOAD ...]

Run it only when an estimate is meant to change, and say why in the
commit: the digests are what catches an estimate that changed by
accident.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import workloads
from repro.apps import get_benchmark
from repro.estimation.estimator import Estimator
from repro.target.board import MAIA


def main(names) -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    workloads.WORK_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        spec = workloads.WORKLOADS[name]
        inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        ckpt = (tempfile.mkdtemp(dir=workloads.WORK_DIR)
                if spec.checkpoint else None)
        try:
            call = workloads.run_call(
                spec, inputs, get_benchmark(spec.bench), Estimator(MAIA), ckpt
            )
        finally:
            if ckpt is not None:
                shutil.rmtree(ckpt, ignore_errors=True)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        doc = workloads.golden_doc(name, call)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"{path}: {len(doc['points'])} points")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
