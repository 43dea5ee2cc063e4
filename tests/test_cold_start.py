"""Cold start: a command imports what it runs, and no more, up front.

Package inits are lazy (:func:`repro.lazy_exports`), a benchmark lookup
imports only that benchmark's module, and each CLI subcommand imports
its modules in its handler, so set-up loads less code.
Import cost must not move into the timed work instead: once an estimator
exists, a sweep and a search import no further ``repro`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_warm_explore_and_search_import_no_repro_module(tmp_path):
    new = run_fresh(f"""
import json, sys
from repro.apps import get_benchmark
from repro.dse import explore, local_search
from repro.estimation import Estimator

bench = get_benchmark("dotproduct")
estimator = Estimator()
loaded = set(sys.modules)
explore(bench, estimator, max_points=300, seed=1, shards=2,
        checkpoint_dir={str(tmp_path)!r})
local_search(bench, estimator, budget=40, seed=2)
print(json.dumps(sorted(m for m in set(sys.modules) - loaded
                        if m.split(".")[0] == "repro")))
""")
    assert new == []


def test_lookups_import_only_what_they_name():
    loaded = run_fresh("""
import json, sys
import repro
from repro.apps import get_benchmark
get_benchmark("kmeans")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
""")
    apps = [m for m in loaded if m.startswith("repro.apps.")]
    assert apps == ["repro.apps.kmeans", "repro.apps.registry"]
    for lazy in ("repro.synth.synthesis", "repro.estimation.train",
                 "repro.sim", "repro.codegen", "repro.hls"):
        assert lazy not in loaded


def test_cli_import_loads_no_pipeline():
    """The CLI imports what a subcommand runs in its handler, so
    ``import repro.cli`` (``--help``, argument errors) loads no numpy and
    none of the pipeline."""
    loaded = run_fresh("""
import json, sys
import repro.cli
print(json.dumps(sorted(sys.modules)))
""")
    heavy = ("numpy", "repro.dse", "repro.runtime", "repro.estimation",
             "repro.apps")
    assert [m for m in loaded
            if any(m == h or m.startswith(h + ".") for h in heavy)] == []


def test_lazy_names_resolve():
    from repro import estimation, synth
    from repro.apps import all_benchmarks

    for package in (repro, estimation, synth):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
        assert set(package.__all__) <= set(dir(package))
    assert len(all_benchmarks()) == 7
