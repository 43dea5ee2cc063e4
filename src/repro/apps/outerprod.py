"""Vector outer product benchmark (paper Table II: 38,400 x 38,400).

Both BRAM- and memory-bound: the output tile grows quadratically with the
input tile sizes (2N + N^2 BRAM words), and the dominant cost is streaming
the N^2 output back to DRAM. The paper observes that the best designs do
*not* overlap loads and stores with MetaPipes: DRAM contention from
overlapping transfers costs more than sequential stage execution.
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


class OuterProduct(Benchmark):
    name = "outerprod"
    description = "Vector outer product"

    def default_dataset(self) -> Dataset:
        return {"na": 38_400, "nb": 38_400}

    def small_dataset(self) -> Dataset:
        return {"na": 64, "nb": 48}

    def param_space(self, dataset: Dataset) -> ParamSpace:
        na, nb = dataset["na"], dataset["nb"]
        space = ParamSpace()
        space.int_param("tile_a", [d for d in divisors(na) if 16 <= d <= 4096])
        space.int_param("tile_b", [d for d in divisors(nb) if 16 <= d <= 4096])
        space.int_param("par", [1, 2, 4, 8, 16, 32, 64])
        space.int_param("par_mem", [1, 4, 16, 64])
        space.bool_param("mp_outer")
        space.bool_param("mp_inner")
        space.constrain(lambda p: p["tile_b"] % p["par"] == 0)
        space.constrain(
            lambda p: p["tile_a"] * p["tile_b"] <= MAX_TILE_WORDS
        )
        return space

    def default_params(self, dataset: Dataset) -> Params:
        ta = max(d for d in divisors(dataset["na"]) if d <= 192)
        tb = max(d for d in divisors(dataset["nb"]) if d <= 192)
        return {
            "tile_a": ta,
            "tile_b": tb,
            "par": max(p for p in (1, 2, 4, 8) if tb % p == 0),
            "par_mem": 16,
            "mp_outer": False,
            "mp_inner": False,
        }

    def build(
        self,
        dataset: Dataset,
        tile_a: int,
        tile_b: int,
        par: int,
        par_mem: int,
        mp_outer: bool,
        mp_inner: bool,
    ) -> Design:
        na, nb = dataset["na"], dataset["nb"]
        with Design("outerprod") as design:
            a = hw.offchip("a", Float32, na)
            b = hw.offchip("b", Float32, nb)
            out = hw.offchip("out", Float32, na, nb)
            with hw.sequential("top"):
                with hw.loop(
                    "rows", [(na, tile_a)], metapipe_=mp_outer
                ) as rows:
                    (i,) = rows.iters
                    aT = hw.bram("aT", Float32, tile_a)
                    hw.tile_load(a, aT, (i,), (tile_a,), par=par_mem)
                    with hw.loop(
                        "cols", [(nb, tile_b)], metapipe_=mp_inner
                    ) as cols:
                        (j,) = cols.iters
                        bT = hw.bram("bT", Float32, tile_b)
                        hw.tile_load(b, bT, (j,), (tile_b,), par=par_mem)
                        outT = hw.bram("outT", Float32, tile_a, tile_b)
                        with hw.pipe(
                            "prod",
                            [(tile_a, 1), (tile_b, 1)],
                            par=par,
                        ) as prod:
                            ii, jj = prod.iters
                            outT[ii, jj] = aT[ii] * bT[jj]
                        hw.tile_store(
                            out, outT, (i, j), (tile_a, tile_b), par=par_mem
                        )
        return design

    def generate_inputs(self, dataset: Dataset, rng: np.random.Generator) -> Inputs:
        return {
            "a": rng.normal(size=dataset["na"]),
            "b": rng.normal(size=dataset["nb"]),
        }

    def reference(self, inputs: Inputs, dataset: Dataset) -> Dict[str, np.ndarray]:
        return {"out": kernels.outerprod(inputs["a"], inputs["b"])}

    def check_outputs(self, outputs, expected) -> bool:
        return bool(np.allclose(outputs["out"], expected["out"], rtol=1e-9))

    def flops(self, dataset: Dataset) -> float:
        return float(dataset["na"]) * dataset["nb"]

    def cpu_time(self, dataset: Dataset, cpu: CPUModel = XEON_E5_2630) -> float:
        """Writing the N^2 output dominates; x86 pays read-for-ownership on
        the output stream (no non-temporal stores in the OptiML-generated
        code), plus a threading sync penalty the paper itself attributes
        the CPU's loss to."""
        na, nb = dataset["na"], dataset["nb"]
        base = cpu.roofline(
            flops=float(na) * nb,
            bytes_read=4.0 * (na + nb),
            bytes_written=4.0 * na * nb,
            compute_efficiency=0.5,
            mem_efficiency=0.88,
            write_allocate=True,
        )
        # The paper attributes its 2.4x to CPU-side threading and
        # synchronization overhead ("the CPU outerprod implementation can
        # likely be improved further"): the measured baseline achieved less
        # than half of the streaming bound.
        return base * 2.2


register(OuterProduct())
