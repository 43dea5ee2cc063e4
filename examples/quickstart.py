"""Quickstart: build, validate, estimate, and explore one accelerator.

Walks the paper's whole flow on the dot product benchmark:

1. describe the accelerator in the DHDL embedded DSL (Figure 4 style);
2. check functional correctness against numpy;
3. estimate cycles and FPGA area with the fast hybrid estimator;
4. compare the estimate to the (simulated) vendor toolchain report;
5. sweep a few design points and print the trade-off.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Design, FunctionalSim, default_estimator, simulate, synthesize
from repro.ir import Float32, format_design
from repro.ir import builder as hw


def build_dotproduct(n: int, tile: int, par: int, metapipe: bool) -> Design:
    """A tiled dot-product accelerator, parameterized like Figure 3."""
    with Design("dotproduct") as design:
        a = hw.offchip("a", Float32, n)
        b = hw.offchip("b", Float32, n)
        out = hw.arg_out("out", Float32)
        with hw.sequential("top"):
            with hw.loop(
                "tiles", [(n, tile)], metapipe_=metapipe, accum=("add", out)
            ) as tiles:
                (i,) = tiles.iters
                aT = hw.bram("aT", Float32, tile)
                bT = hw.bram("bT", Float32, tile)
                with hw.parallel():
                    hw.tile_load(a, aT, (i,), (tile,), par=par)
                    hw.tile_load(b, bT, (i,), (tile,), par=par)
                acc = hw.reg("acc", Float32)
                with hw.pipe(
                    "mac", [(tile, 1)], par=par, accum=("add", acc)
                ) as mac:
                    (j,) = mac.iters
                    mac.returns(aT[j] * bT[j])
                tiles.returns(acc)
    return design


def main() -> None:
    # 1. A small instance, printed as a template tree.
    design = build_dotproduct(n=1024, tile=128, par=4, metapipe=True)
    print(format_design(design))

    # 2. Functional validation against numpy.
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=1024), rng.normal(size=1024)
    outputs = FunctionalSim(design).run({"a": a, "b": b})
    assert np.isclose(outputs["out"], a @ b), "functional mismatch!"
    print(f"\nfunctional check: out = {outputs['out']:.6f} "
          f"(numpy: {a @ b:.6f})  OK")

    # 3./4. Estimate a realistic instance and compare to "synthesis".
    print("\nEstimator vs toolchain on a full-size instance:")
    estimator = default_estimator()  # loads the shipped MAIA models
    big = build_dotproduct(n=1_872_000, tile=12_000, par=16, metapipe=True)
    est = estimator.estimate(big)
    report = synthesize(big)
    measured = simulate(big)
    print(f"  ALMs   : estimated {est.alms:8,d}   post-P&R {report.alms:8,d}")
    print(f"  DSPs   : estimated {est.dsps:8,d}   post-P&R {report.dsps:8,d}")
    print(f"  BRAMs  : estimated {est.brams:8,d}   post-P&R {report.brams:8,d}")
    print(f"  cycles : estimated {est.cycles:10,.0f}   measured "
          f"{measured.cycles:10,.0f}")

    # 5. A miniature design space sweep.
    print("\nDesign space sweep (runtime vs area):")
    print(f"  {'tile':>7s} {'par':>4s} {'mp':>3s} {'cycles':>12s} "
          f"{'ALMs':>9s} {'BRAMs':>6s}")
    for tile in (2_000, 12_000, 24_000):
        for par in (4, 16):
            for mp in (False, True):
                d = build_dotproduct(1_872_000, tile, par, mp)
                e = estimator.estimate(d)
                print(f"  {tile:7d} {par:4d} {int(mp):3d} {e.cycles:12,.0f} "
                      f"{e.alms:9,d} {e.brams:6,d}")


if __name__ == "__main__":
    main()
