"""Tiled matrix multiplication benchmark (paper Table II: 1536 x 1536).

The locality-rich kernel: Pareto-optimal designs keep large 2-D chunks of
all three matrices on chip (the paper notes they occupy almost all BRAM).
The design tiles all three loop dimensions; the k-loop accumulates partial
products into the output tile across iterations.

This is also the paper's highest-error benchmark: the toolchain's
multiply-add fusion, reduction-tree fusion, and BRAM coalescing are only
heuristically predicted by the estimator.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..cpu import kernels
from ..cpu.model import XEON_E5_2630, CPUModel
from ..ir import Design, Float32
from ..ir import builder as hw
from ..params import ParamSpace, divisors
from .registry import (
    MAX_TILE_WORDS,
    Benchmark,
    Dataset,
    Inputs,
    Params,
    register,
)


class GEMM(Benchmark):
    name = "gemm"
    description = "Tiled matrix multiplication"

    def default_dataset(self) -> Dataset:
        return {"m": 1536, "n": 1536, "k": 1536}

    def small_dataset(self) -> Dataset:
        return {"m": 24, "n": 16, "k": 32}

    def param_space(self, dataset: Dataset) -> ParamSpace:
        m, n, k = dataset["m"], dataset["n"], dataset["k"]
        space = ParamSpace()
        space.int_param("tile_m", [d for d in divisors(m) if 8 <= d <= 384])
        space.int_param("tile_n", [d for d in divisors(n) if 8 <= d <= 384])
        space.int_param("tile_k", [d for d in divisors(k) if 8 <= d <= 768])
        space.int_param("par_k", [1, 2, 4, 8, 16, 32])
        space.int_param("par_n", [1, 2, 4, 8])
        space.int_param("par_mem", [1, 4, 16, 48])
        space.bool_param("mp_ij")
        space.bool_param("mp_k")
        space.bool_param("mp_rows")
        space.constrain(lambda p: p["tile_k"] % p["par_k"] == 0)
        space.constrain(lambda p: p["tile_n"] % p["par_n"] == 0)
        space.constrain(lambda p: p["tile_m"] * p["tile_k"] <= MAX_TILE_WORDS)
        space.constrain(lambda p: p["tile_k"] * p["tile_n"] <= MAX_TILE_WORDS)
        space.constrain(lambda p: p["tile_m"] * p["tile_n"] <= MAX_TILE_WORDS)
        return space

    def default_params(self, dataset: Dataset) -> Params:
        def pick(total: int, cap: int) -> int:
            return max(d for d in divisors(total) if d <= cap)

        return {
            "tile_m": pick(dataset["m"], 96),
            "tile_n": pick(dataset["n"], 96),
            "tile_k": pick(dataset["k"], 192),
            "par_k": 8,
            "par_n": 2,
            "par_mem": 16,
            "mp_ij": True,
            "mp_k": True,
            "mp_rows": True,
        }

    def build(
        self,
        dataset: Dataset,
        tile_m: int,
        tile_n: int,
        tile_k: int,
        par_k: int,
        par_n: int,
        par_mem: int,
        mp_ij: bool,
        mp_k: bool,
        mp_rows: bool,
    ) -> Design:
        m, n, k = dataset["m"], dataset["n"], dataset["k"]
        with Design("gemm") as design:
            a = hw.offchip("a", Float32, m, k)
            b = hw.offchip("b", Float32, k, n)
            c = hw.offchip("c", Float32, m, n)
            with hw.sequential("top"):
                with hw.loop(
                    "ij", [(m, tile_m), (n, tile_n)], metapipe_=mp_ij
                ) as ij:
                    i, j = ij.iters
                    cT = hw.bram("cT", Float32, tile_m, tile_n)
                    with hw.loop(
                        "kk", [(k, tile_k)], metapipe_=mp_k,
                        accum=("add", cT),
                    ) as kk:
                        (kt,) = kk.iters
                        aT = hw.bram("aT", Float32, tile_m, tile_k)
                        bT = hw.bram("bT", Float32, tile_k, tile_n)
                        with hw.parallel():
                            hw.tile_load(
                                a, aT, (i, kt), (tile_m, tile_k), par=par_mem
                            )
                            hw.tile_load(
                                b, bT, (kt, j), (tile_k, tile_n), par=par_mem
                            )
                        pT = hw.bram("pT", Float32, tile_m, tile_n)
                        with hw.loop(
                            "rows", [(tile_m, 1)], metapipe_=mp_rows
                        ) as rows:
                            (r,) = rows.iters
                            with hw.metapipe(
                                "cols", [(tile_n, 1)], par=par_n
                            ) as cols:
                                (cc,) = cols.iters
                                acc = hw.reg("acc", Float32)
                                with hw.pipe(
                                    "dot",
                                    [(tile_k, 1)],
                                    par=par_k,
                                    accum=("add", acc),
                                ) as dot:
                                    (x,) = dot.iters
                                    dot.returns(aT[r, x] * bT[x, cc])
                                with hw.pipe("wr"):
                                    pT[r, cc] = acc.read()
                        kk.returns(pT)
                    hw.tile_store(
                        c, cT, (i, j), (tile_m, tile_n), par=par_mem
                    )
        return design

    def generate_inputs(self, dataset: Dataset, rng: np.random.Generator) -> Inputs:
        return {
            "a": rng.normal(size=(dataset["m"], dataset["k"])),
            "b": rng.normal(size=(dataset["k"], dataset["n"])),
        }

    def reference(self, inputs: Inputs, dataset: Dataset) -> Dict[str, np.ndarray]:
        return {"c": kernels.gemm(inputs["a"], inputs["b"])}

    def check_outputs(self, outputs, expected) -> bool:
        return bool(np.allclose(outputs["c"], expected["c"], rtol=1e-8))

    def flops(self, dataset: Dataset) -> float:
        return 2.0 * dataset["m"] * dataset["n"] * dataset["k"]

    def cpu_time(self, dataset: Dataset, cpu: CPUModel = XEON_E5_2630) -> float:
        """OpenBLAS sustains ~89 GFLOP/s on this part (paper Section V-D)."""
        openblas_flops = 89e9
        return self.flops(dataset) / openblas_flops + cpu.threading_overhead()


register(GEMM())
