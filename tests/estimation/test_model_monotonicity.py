"""Property tests: fitted template models respect physical monotonicity.

A model fit can wiggle between characterized points; these properties pin
down that the fitted surfaces never invert the physics the DSE relies on
(more lanes never costs less, more banks never simplifies the mux tree).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import Float32, Int32


def prim(models, op, tp, width):
    """A primitive's predicted counts, priced as the estimator's walk does."""
    return models.predict(
        models.prim_key(op, tp), {"bits": tp.bits, "width": width}
    )


@pytest.fixture(scope="module")
def models(estimator):
    return estimator.templates


widths = st.sampled_from([1, 2, 4, 8, 16, 32])
ops = st.sampled_from(["add", "mul", "div", "mux", "lt", "sqrt"])


class TestPrimModels:
    @settings(max_examples=40, deadline=None)
    @given(op=ops, width=widths)
    def test_monotone_in_width(self, models, op, width):
        narrow = prim(models, op, Float32, width)
        wide = prim(models, op, Float32, width * 2)
        assert wide.luts >= narrow.luts
        assert wide.regs >= narrow.regs
        assert wide.dsps >= narrow.dsps

    @settings(max_examples=20, deadline=None)
    @given(width=widths)
    def test_float_dearer_than_int(self, models, width):
        flt = prim(models, "add", Float32, width)
        fix = prim(models, "add", Int32, width)
        assert flt.luts > fix.luts

    def test_transcendentals_dearest(self, models):
        cheap = prim(models, "add", Float32, 1).luts
        dear = prim(models, "log", Float32, 1).luts
        assert dear > 3 * cheap


class TestAccessModels:
    @settings(max_examples=30, deadline=None)
    @given(banks=st.sampled_from([1, 2, 4, 8, 16, 32]))
    def test_load_monotone_in_banks(self, models, banks):
        few = models.predict(
            "load", {"bits": 32, "width": banks, "banks": banks}
        )
        many = models.predict(
            "load", {"bits": 32, "width": banks * 2, "banks": banks * 2}
        )
        assert many.luts >= few.luts

    @settings(max_examples=20, deadline=None)
    @given(width=widths)
    def test_store_never_free(self, models, width):
        counts = models.predict(
            "store", {"bits": 32, "width": width, "banks": width}
        )
        assert counts.luts > 0 and counts.regs > 0


class TestTransferModel:
    @settings(max_examples=20, deadline=None)
    @given(par=st.sampled_from([1, 4, 16, 64]))
    def test_monotone_in_par(self, models, par):
        slim = models.predict(
            "tile_transfer", {"bits": 32, "par": par, "num_commands": 16}
        )
        wide = models.predict(
            "tile_transfer", {"bits": 32, "par": par * 2, "num_commands": 16}
        )
        assert wide.luts >= slim.luts
        assert wide.brams >= slim.brams

    @settings(max_examples=20, deadline=None)
    @given(nc=st.sampled_from([1, 16, 256, 4096]))
    def test_monotone_in_commands(self, models, nc):
        few = models.predict(
            "tile_transfer", {"bits": 32, "par": 4, "num_commands": nc}
        )
        many = models.predict(
            "tile_transfer", {"bits": 32, "par": 4, "num_commands": nc * 4}
        )
        assert many.luts >= few.luts


class TestControlModels:
    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([1, 2, 4, 8, 16]))
    def test_controllers_monotone_in_stages(self, models, n):
        for kind in ("pipe", "metapipe", "sequential", "parallel"):
            small = models.predict(kind, {"n": n})
            large = models.predict(kind, {"n": n * 2})
            assert large.luts >= small.luts, kind
