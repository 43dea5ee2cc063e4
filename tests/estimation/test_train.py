"""Tests for correction-model training and the sample generator."""

import dataclasses

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.estimation import Estimator, generate_sample_design
from repro.estimation.counts import Counts
from repro.estimation.nn import MLP
from repro.estimation.train import NET_CLAMPS, CorrectionModels
from repro.synth import synthesize

from .test_nn import WIDTH_ERROR, mixed_rows, reference_predict


class TestSampleGenerator:
    def test_designs_build_and_finalize(self):
        for seed in range(10):
            design = generate_sample_design(seed)
            assert design.finalized

    def test_designs_are_varied(self):
        stats = [generate_sample_design(s).stats() for s in range(20)]
        prim_counts = {s["prims"] for s in stats}
        assert len(prim_counts) > 10

    def test_designs_synthesizable(self):
        for seed in (0, 5, 9):
            report = synthesize(generate_sample_design(seed))
            assert report.alms > 0

    def test_deterministic_per_seed(self):
        a = generate_sample_design(3).stats()
        b = generate_sample_design(3).stats()
        assert a == b

    def test_resource_usage_spans_orders_of_magnitude(self):
        alms = [
            synthesize(generate_sample_design(s)).alms for s in range(30)
        ]
        assert max(alms) > 10 * min(alms)


class TestCorrections:
    def test_training_summary_magnitudes(self, estimator):
        summary = estimator.corrections.training_summary
        # Paper Section IV-A magnitudes: routing ~10%, dup regs ~5%.
        assert 0.04 <= summary["mean_routing_frac"] <= 0.18
        assert 0.02 <= summary["mean_dup_reg_frac"] <= 0.10
        assert 0.01 <= summary["mean_unavail_frac"] <= 0.08

    def test_routing_prediction_positive(self, estimator):
        from repro.estimation import raw_area
        from repro.estimation.features import design_features

        design = generate_sample_design(123)
        raw = raw_area(design, estimator.templates)
        feats = design_features(design, raw.counts, raw.wire_bits)
        routing = estimator.corrections.predict_routing_luts(
            feats, raw.counts
        )
        assert 0 < routing < 0.5 * raw.counts.luts

    def test_bram_dup_clamped_to_raw(self, estimator):
        from repro.estimation.counts import Counts

        raw = Counts(luts_packable=100, luts_unpackable=50, brams=5)
        dup = estimator.corrections.predict_duplicated_brams(1e9, raw)
        assert dup <= raw.brams

    def test_bram_dup_zero_floor(self, estimator):
        from repro.estimation.counts import Counts

        raw = Counts(luts_packable=100, luts_unpackable=50, brams=5)
        dup = estimator.corrections.predict_duplicated_brams(0.0, raw)
        assert dup >= 0.0


def widened(corrections: CorrectionModels) -> CorrectionModels:
    """The same nets with outputs spread wide enough to hit every clamp."""
    nets = {}
    for name in ("routing_net", "dup_reg_net", "unavail_net"):
        data = getattr(corrections, name).to_dict()
        data["y_std"] *= 40.0
        nets[name] = MLP.from_dict(data)
    return dataclasses.replace(corrections, **nets)


def random_raws(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Counts(float(a), float(b), float(c), 1.0, float(d))
            for a, b, c, d in rng.uniform(0.0, 5e4, (n, 4))]


class TestBatchedCorrections:
    @pytest.mark.parametrize("wide", [False, True], ids=["trained", "wide"])
    @pytest.mark.parametrize("n", [1, 7, 32, 1024])
    def test_batch_equals_scalar_and_reference(self, estimator, n, wide):
        models = estimator.corrections
        models = widened(models) if wide else models
        feats, raws = mixed_rows(n, seed=n).tolist(), random_raws(n, seed=n)
        batch = models.predict_batch(feats, raws)
        scalar = [
            [models.predict_routing_luts(*row) for row in zip(feats, raws)],
            [models.predict_duplicated_regs(*row) for row in zip(feats, raws)],
            [models.predict_unavailable_luts(*row) for row in zip(feats, raws)],
            [models.predict_duplicated_brams(v, r)
             for v, r in zip(batch[0], raws)],
        ]
        for got, want in zip(batch, scalar):
            assert got.tobytes() == np.array(want).tobytes()
        nets = [models.routing_net, models.dup_reg_net, models.unavail_net]
        scales = ("luts", "regs", "luts")
        for k, (net, (lo, hi)) in enumerate(zip(nets, NET_CLAMPS)):
            fracs = reference_predict(net, np.array(feats))
            want = [min(max(float(v), lo), hi) * getattr(r, scales[k])
                    for v, r in zip(fracs, raws)]
            assert batch[k].tobytes() == np.array(want).tobytes()
        for i in (0, n // 2, n - 1):  # a row alone prices as in its block
            alone = models.predict_batch([feats[i]], [raws[i]])
            assert [a[0] for a in alone] == [b[i] for b in batch]

    def test_wide_models_hit_every_clamp(self, estimator):
        models = widened(estimator.corrections)
        fracs = models._stack.predict(mixed_rows(1024))
        for k, (lo, hi) in enumerate(NET_CLAMPS):
            assert (fracs[k] == lo).any() and (fracs[k] == hi).any()

    def test_rejects_rows_raws_mismatch(self, estimator):
        feats = mixed_rows(2).tolist()
        with pytest.raises(ValueError, match="expected 1 feature rows.*got 2"):
            estimator.corrections.predict_batch(feats, random_raws(1))

    def test_rejects_wrong_feature_count(self, estimator):
        with pytest.raises(ValueError, match=WIDTH_ERROR):
            estimator.corrections.predict_batch([[0.0] * 10], random_raws(1))

    def test_oracle_area_fields_are_python_floats(self, estimator):
        bench = get_benchmark("blackscholes")
        dataset = bench.default_dataset()
        design = bench.build(dataset, **bench.default_params(dataset))
        cold = Estimator(estimator.board, templates=estimator.templates,
                         corrections=estimator.corrections, cache=False)
        area = cold.estimate(design).area
        for name in ("routing_luts", "duplicated_regs", "duplicated_brams",
                     "unavailable_luts"):
            assert type(getattr(area, name)) is float, name
