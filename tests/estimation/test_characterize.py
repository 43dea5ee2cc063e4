"""Tests for template characterization and fitted models."""

import pytest

from repro.estimation import characterize_templates
from repro.estimation.counts import Counts
from repro.ir.types import Float32, Int32
from repro.target import STRATIX_V


def prim(models, op, tp, width):
    """A primitive's predicted counts, priced as the estimator's walk does."""
    return models.predict(
        models.prim_key(op, tp), {"bits": tp.bits, "width": width}
    )


@pytest.fixture(scope="module")
def models():
    return characterize_templates(STRATIX_V)


class TestCharacterization:
    def test_covers_all_primitive_ops(self, models):
        from repro.ir.primitives import OP_INFO

        for op in OP_INFO:
            assert any(key.startswith(f"prim:{op}:") for key in models.coefs)

    def test_many_synthesis_runs_amortized(self, models):
        # Roughly "six designs per template" across all families.
        assert models.synthesis_runs >= 6 * len(models.coefs) * 0.5

    def test_fit_residuals_small(self, models):
        worst = max(models.fit_residuals.values())
        assert worst < 0.12  # average relative residual per family

    def test_predict_returns_counts(self, models):
        counts = prim(models, "add", Float32, 4)
        assert isinstance(counts, Counts)
        assert counts.luts > 0 and counts.regs > 0

    def test_unknown_template_rejected(self, models):
        with pytest.raises(KeyError):
            models.predict("prim:quantum:flt", {})

    def test_prediction_nonnegative_everywhere(self, models):
        for width in (1, 3, 5, 24, 96):
            counts = prim(models, "mux", Float32, width)
            assert counts.luts >= 0 and counts.regs >= 0

    def test_float_add_costs_more_than_int(self, models):
        f = prim(models, "add", Float32, 1)
        i = prim(models, "add", Int32, 1)
        assert f.luts > i.luts

    def test_mul_dsp_prediction_close_to_integer(self, models):
        for width in (1, 8, 32):
            counts = prim(models, "mul", Float32, width)
            assert counts.dsps == pytest.approx(width, rel=0.15)

    def test_interpolates_between_characterized_widths(self, models):
        # Width 24 was never characterized (grid has 16 and 32).
        lo = prim(models, "add", Float32, 16).luts
        mid = prim(models, "add", Float32, 24).luts
        hi = prim(models, "add", Float32, 32).luts
        assert lo < mid < hi

    def test_bram_model_analytic_blocks(self, models):
        counts = models.predict(
            "bram", {"banks": 4, "bits": 32, "double": False}
        )
        # Block count is analytic (set by the area pass), not fitted.
        assert counts.brams == 0.0
        assert counts.luts > 0

    def test_tile_transfer_fifo_brams_fit(self, models):
        counts = models.predict(
            "tile_transfer", {"bits": 32, "par": 16, "num_commands": 96}
        )
        assert counts.brams >= 1
