"""The paper's experiments, each implemented once, and the report that runs them.

Each computation is a public function: :func:`table3_errors` (Table III,
estimate vs place-and-route and simulation on five Pareto points),
:func:`table4_seconds` (Table IV, seconds per design against an
HLS-style tool), :func:`best_speedup` (Figure 6, best design vs the CPU)
and :func:`synth_effects` (the Section IV-A effect census). The benches
under ``benchmarks/``, ``repro speedup`` and the tier-1 shape guards in
``tests/test_paper_shapes.py`` call these same functions at their own
budgets. ``build_report`` renders all of them as one markdown document
(``repro report -o report.md``). Figure 5 has no section: its panel
claims are assertions in ``benchmarks/test_figure5_design_space.py``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import obs
from .apps import all_benchmarks, get_benchmark
from .dse import DesignPoint, explore
from .estimation import Estimator, generate_sample_design
from .hls import HLSExplosionError, HLSTool
from .sim import simulate
from .synth import synthesize

# Table III per benchmark: ALM / DSP / BRAM / runtime error (%).
PAPER_TABLE3 = {
    "dotproduct": (1.7, 0.0, 13.1, 2.8),
    "outerprod": (4.4, 29.7, 12.8, 1.3),
    "gemm": (12.7, 11.4, 17.4, 18.4),
    "tpchq6": (2.3, 0.0, 5.4, 3.1),
    "blackscholes": (5.3, 5.3, 7.0, 3.4),
    "gda": (5.2, 6.2, 8.4, 6.7),
    "kmeans": (2.0, 0.0, 21.9, 7.0),
}
PAPER_SPEEDUPS = {
    "dotproduct": 1.07, "outerprod": 2.42, "gemm": 0.10, "tpchq6": 1.11,
    "blackscholes": 16.73, "gda": 4.55, "kmeans": 1.15,
}
ERROR_KEYS = ("alm", "dsp", "bram", "runtime")


def table3_errors(bench, estimator: Estimator, points: int,
                  workers: int = 1) -> Optional[Dict[str, float]]:
    """Mean absolute error (%) per ``ERROR_KEYS`` of five Pareto points
    against place-and-route and simulation; ``None`` on an empty front."""
    result = explore(bench, estimator, max_points=points, seed=17,
                     workers=workers)
    front = result.pareto_sample(5)
    if not front:
        return None
    errs = {k: [] for k in ERROR_KEYS}
    for point in front:
        design = bench.build(result.dataset, **point.params)
        est, rep = point.estimate, synthesize(design)
        cycles = simulate(design).cycles
        for key, got, real in (
            ("alm", est.alms, rep.alms), ("dsp", est.dsps, rep.dsps),
            ("bram", est.brams, rep.brams), ("runtime", est.cycles, cycles),
        ):
            errs[key].append(abs(got - real) / max(real, 1))
    return {k: 100 * float(np.mean(v)) for k, v in errs.items()}


def best_speedup(
    bench, estimator: Estimator, points: int, seed: int = 31, workers: int = 1,
) -> Optional[Tuple[float, DesignPoint, float, float]]:
    """``(speedup, best point, fpga_s, cpu_s)`` of the fastest valid design
    over the modeled CPU, or ``None`` when no design is valid."""
    result = explore(bench, estimator, max_points=points, seed=seed,
                     workers=workers)
    best = result.best
    if best is None:
        return None
    fpga_s = simulate(bench.build(result.dataset, **best.params)).seconds
    cpu_s = bench.cpu_time(result.dataset)
    return cpu_s / fpga_s, best, fpga_s, cpu_s


def table4_seconds(estimator: Estimator, n_ours: int, n_restricted: int,
                   n_full: int) -> Dict[str, float]:
    """Seconds per gda design: the estimator on ``n_ours`` sampled points,
    the HLS-style tool without (restricted) and with (full) outer-loop
    pipelining on the first ``n_restricted`` and ``n_full`` of them."""
    bench = get_benchmark("gda")
    ds = bench.default_dataset()
    points = bench.param_space(ds).sample(random.Random(21), n_ours)
    tool = HLSTool()

    def hls(pipeline_outer):
        def run(params):
            try:
                tool.estimate(bench.build(ds, **params), pipeline_outer)
            except HLSExplosionError:
                pass  # the real tool would grind on; the model caps it
        return run

    def per_design(fn, pts):
        start = time.perf_counter()
        for params in pts:
            fn(params)
        return (time.perf_counter() - start) / max(len(pts), 1)

    return {
        "ours_s": per_design(
            lambda p: estimator.estimate(bench.build(ds, **p)), points
        ),
        "hls_restricted_s": per_design(hls(False), points[:n_restricted]),
        "hls_full_s": per_design(hls(True), points[:n_full]),
    }


def synth_effects(n_designs: int) -> Dict[str, np.ndarray]:
    """Per-design fractions of each place-and-route effect over
    ``n_designs`` synthesized sample designs (``dup_bram`` only counts
    designs with at least three raw BRAMs)."""
    f = {k: [] for k in ("packed", "routing", "dup_reg", "dup_bram",
                         "unavail", "lut_saving")}
    for k in range(n_designs):
        r = synthesize(generate_sample_design(7_000 + k))
        raw = r.raw_luts_packable + r.raw_luts_unpackable
        f["packed"].append(r.packed_fraction)
        f["routing"].append(r.routing_luts / max(raw, 1))
        f["dup_reg"].append(r.duplicated_regs / max(r.regs, 1))
        raw_brams = r.brams - r.duplicated_brams
        if raw_brams >= 3:
            f["dup_bram"].append(r.duplicated_brams / raw_brams)
        f["unavail"].append(r.unavailable_luts / max(r.total_luts, 1))
        # LUT units after packing vs before.
        units = (
            r.raw_luts_unpackable
            + r.raw_luts_packable * (1 - r.packed_fraction)
            + r.raw_luts_packable * r.packed_fraction / 2
        )
        f["lut_saving"].append(1 - units / max(raw, 1))
    return {k: np.array(v) for k, v in f.items()}


def _percent_cells(errs: Optional[Dict[str, float]], bold: str = "") -> str:
    if errs is None:
        return " | ".join("—" for _ in ERROR_KEYS)
    return " | ".join(f"{bold}{errs[k]:.1f}%{bold}" for k in ERROR_KEYS)


def _table3_section(estimator: Estimator, points: int, workers: int = 1) -> List[str]:
    lines = [
        "## Table III — estimation error (5 Pareto points per benchmark)",
        "",
        "| benchmark | ALMs | DSPs | BRAM | runtime |",
        "|---|---|---|---|---|",
    ]
    rows = []
    for bench in all_benchmarks():
        errs = table3_errors(bench, estimator, points, workers)
        if errs is not None:
            rows.append(errs)
        lines.append(f"| {bench.name} | {_percent_cells(errs)} |")
    average = {
        k: np.mean([row[k] for row in rows]) for k in ERROR_KEYS
    } if rows else None
    lines.append(f"| **average** | {_percent_cells(average, '**')} |")
    lines.append("")
    lines.append("Paper averages: 4.8% / 7.5% / 12.3% / 6.1%.")
    return lines


def _table4_section(estimator: Estimator) -> List[str]:
    seconds = table4_seconds(estimator, 40, 8, 2)
    ours = seconds["ours_s"]
    restricted = seconds["hls_restricted_s"]
    full = seconds["hls_full_s"]
    return [
        "## Table IV — estimation speed per design point (GDA)",
        "",
        "| tool | s/design | vs ours |",
        "|---|---|---|",
        f"| ours | {ours:.5f} | 1x |",
        f"| HLS-style restricted | {restricted:.5f} | "
        f"{restricted / ours:.0f}x |",
        f"| HLS-style full | {full:.5f} | {full / ours:.0f}x |",
        "",
        "Paper: 0.017 s vs 4.75 s (279x) vs 111.06 s (6533x).",
    ]


def _figure6_section(estimator: Estimator, points: int, workers: int = 1) -> List[str]:
    lines = [
        "## Figure 6 — best-design speedup over the 6-core CPU",
        "",
        "| benchmark | measured | paper |",
        "|---|---|---|",
    ]
    for bench in all_benchmarks():
        found = best_speedup(bench, estimator, points, workers=workers)
        measured = "no valid design" if found is None else f"{found[0]:.2f}x"
        lines.append(
            f"| {bench.name} | {measured} | {PAPER_SPEEDUPS[bench.name]}x |"
        )
    return lines


def _effects_section() -> List[str]:
    effects = synth_effects(30)
    pack = effects["packed"].mean()
    routing = effects["routing"].mean()
    dup_reg = effects["dup_reg"].mean()
    unavail = effects["unavail"].mean()
    return [
        "## Section IV-A — place-and-route effect magnitudes",
        "",
        "| effect | measured | paper |",
        "|---|---|---|",
        f"| LUT pack rate | {pack:.0%} | ~80% |",
        f"| route-through LUTs | {routing:.1%} | ~10% |",
        f"| duplicated registers | {dup_reg:.1%} | ~5% |",
        f"| unavailable LUTs | {unavail:.1%} | ~4% |",
    ]


def _metrics_section(estimator: Optional[Estimator] = None) -> List[str]:
    """Counters and latency histograms collected while the report ran."""
    lines = [
        "## Observability — metrics collected during this report",
        "",
        "Per-pass latency histograms (`pass.*`) decompose Table IV's",
        "per-design estimation time; sweeps price points from compiled",
        "class plans instead (`estimate.plans.compiled` counts the classes,",
        "`estimate.plan_s` times the evaluated blocks); `dse.*` counters",
        "census the sampled spaces; `estimation.cache.*` counters",
        "explain how much of the sweep the memoization layer absorbed;",
        "`dram.*` counters/histograms (transfers, bytes, contention",
        "cycles, interleave efficiency) show how much simulated memory",
        "time was queueing behind sibling streams.",
        "See docs/observability.md and docs/estimation_performance.md.",
        "",
        "```",
        obs.metrics().summary_table(title=None),
        "```",
    ]
    lines += _estimation_cache_section(estimator)
    return lines


def _estimation_cache_section(estimator: Optional[Estimator]) -> List[str]:
    """Per-cache hit/miss/evict table for the estimator's cache bundle."""
    lines = ["", "### Estimation cache"]
    caches = getattr(estimator, "caches", None)
    if caches is None:
        lines += [
            "",
            "Estimation memoization disabled for this run (`--no-cache`).",
        ]
        return lines
    lines += ["", "```"]
    lines += caches.summary_lines()
    lines += ["```"]
    return lines


def build_report(
    estimator: Estimator,
    dse_points: int = 400,
    sections: Optional[List[str]] = None,
    workers: int = 1,
) -> str:
    """Render the consolidated evaluation report as markdown.

    Unless metrics collection is already on (e.g. the caller is tracing),
    the report enables :mod:`repro.obs` metrics for its own duration so
    the closing section can show where the evaluation time went.
    ``workers`` routes the DSE sweeps (Table III, Figure 6) through the
    sharded :mod:`repro.runtime` engine — identical results, less
    wall-clock on multicore hosts.
    """
    chosen = sections or ["table3", "table4", "figure6", "effects", "metrics"]
    own_metrics = "metrics" in chosen and not obs.metrics_enabled()
    if own_metrics:
        obs.metrics().reset()
        obs.enable(metrics=True)
    parts: List[str] = [
        "# Evaluation report — DHDL reproduction",
        "",
        f"DSE budget: {dse_points} points per benchmark "
        "(paper-scale: 75,000). All substrates deterministic; see "
        "EXPERIMENTS.md for interpretation.",
        "",
    ]
    try:
        if "table3" in chosen:
            parts += _table3_section(estimator, dse_points, workers) + [""]
        if "table4" in chosen:
            parts += _table4_section(estimator) + [""]
        if "figure6" in chosen:
            parts += _figure6_section(estimator, dse_points, workers) + [""]
        if "effects" in chosen:
            parts += _effects_section() + [""]
        if "metrics" in chosen:
            parts += _metrics_section(estimator) + [""]
    finally:
        if own_metrics:
            obs.enable(metrics=False)
    return "\n".join(parts)
