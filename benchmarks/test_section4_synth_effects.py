"""Section IV-A: magnitudes of the low-level place-and-route effects.

The paper quantifies each effect in its designs: ~80% of functions pack in
pairs (-40% LUTs), route-through LUTs ~10% of used LUTs, duplicated
registers ~5%, BRAM duplication 10-100%, unavailable LUTs ~4%. This bench
measures the same statistics across a population of synthesized designs.
"""

from repro.estimation import generate_sample_design
from repro.report import synth_effects
from repro.synth import synthesize

from conftest import write_result

N_DESIGNS = 60


def test_section4_effect_magnitudes(results_dir):
    f = synth_effects(N_DESIGNS)
    lines = [
        f"{'Effect':28s} {'mean':>7s} {'min':>7s} {'max':>7s}   paper",
        f"{'LUT pack rate':28s} {f['packed'].mean():7.1%} "
        f"{f['packed'].min():7.1%} {f['packed'].max():7.1%}   ~80%",
        f"{'LUT saving from packing':28s} {f['lut_saving'].mean():7.1%} "
        f"{f['lut_saving'].min():7.1%} {f['lut_saving'].max():7.1%}   ~40%",
        f"{'Route-through LUTs':28s} {f['routing'].mean():7.1%} "
        f"{f['routing'].min():7.1%} {f['routing'].max():7.1%}   ~10%",
        f"{'Duplicated registers':28s} {f['dup_reg'].mean():7.1%} "
        f"{f['dup_reg'].min():7.1%} {f['dup_reg'].max():7.1%}   ~5%",
        f"{'Duplicated BRAMs':28s} {f['dup_bram'].mean():7.1%} "
        f"{f['dup_bram'].min():7.1%} {f['dup_bram'].max():7.1%}   10-100%",
        f"{'Unavailable LUTs':28s} {f['unavail'].mean():7.1%} "
        f"{f['unavail'].min():7.1%} {f['unavail'].max():7.1%}   ~4%",
    ]
    write_result(
        results_dir / "section4_effects.txt",
        "Section IV-A — low-level toolchain effects",
        lines,
    )
    assert 0.70 <= f["packed"].mean() <= 0.90
    assert 0.30 <= f["lut_saving"].mean() <= 0.50
    assert 0.05 <= f["routing"].mean() <= 0.15
    assert 0.02 <= f["dup_reg"].mean() <= 0.09
    assert 0.05 <= f["dup_bram"].mean() <= 1.0
    assert f["dup_bram"].max() <= 1.35  # noisy but bounded near 100%
    assert 0.02 <= f["unavail"].mean() <= 0.08


def test_bench_synthesize(benchmark):
    design = generate_sample_design(999)
    report = benchmark(synthesize, design)
    assert report.alms > 0
