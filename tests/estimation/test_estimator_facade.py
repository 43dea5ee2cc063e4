"""Tests for the Estimator facade and its shipped default models."""

import dataclasses

import pytest

from repro.apps import get_benchmark
from repro.estimation import Estimator, default_estimator
from repro.estimation import estimator as estimator_mod
from repro.target import MAIA


class TestFacade:
    def test_estimate_bundles_cycles_and_area(self, estimator):
        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        est = estimator.estimate(design)
        cycles = estimator.estimate_cycles(design)
        area = estimator.estimate_area(design)
        assert est.cycles == cycles.total
        assert est.alms == area.alms
        assert est.brams == area.brams

    def test_estimate_properties(self, estimator):
        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        est = estimator.estimate(bench.build(ds, **bench.default_params(ds)))
        assert est.design_name == "tpchq6"
        assert est.dsps == est.area.dsps
        util = est.utilization()
        assert set(util) == {"alms", "dsps", "brams"}

    def test_custom_training_budget(self):
        fast = Estimator(MAIA, training_samples=40, seed=3)
        assert fast.corrections.training_summary["n_samples"] == 40.0

    def test_injected_models_skip_training(self, estimator):
        reused = Estimator(
            MAIA,
            templates=estimator.templates,
            corrections=estimator.corrections,
        )
        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        assert reused.estimate(design).alms == estimator.estimate(design).alms

    def test_estimates_are_deterministic(self, estimator):
        bench = get_benchmark("gda")
        ds = bench.default_dataset()
        params = bench.default_params(ds)
        first = estimator.estimate(bench.build(ds, **params))
        second = estimator.estimate(bench.build(ds, **params))
        assert (first.cycles, first.alms, first.brams, first.dsps) == (
            second.cycles, second.alms, second.brams, second.dsps
        )

    def test_training_seed_changes_corrections_slightly(self):
        a = Estimator(MAIA, training_samples=60, seed=1)
        b = Estimator(MAIA, training_samples=60, seed=2)
        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        ea, eb = a.estimate(design), b.estimate(design)
        # Different training data -> slightly different corrections, but
        # the same ballpark (raw counts dominate).
        assert ea.alms != eb.alms or ea.brams != eb.brams
        assert abs(ea.alms - eb.alms) / eb.alms < 0.1


class Trained(Exception):
    """Raised by the stubbed ``train_corrections``: training was reached."""


class TestShippedModels:
    @pytest.fixture()
    def calls(self, monkeypatch):
        """Record characterization and training; training raises ``Trained``."""
        log = []
        characterize = estimator_mod.characterize_templates

        def recording_characterize(device):
            log.append("characterize")
            return characterize(device)

        def refusing_train(*args, **kwargs):
            log.append("train")
            raise Trained

        monkeypatch.setattr(
            estimator_mod, "characterize_templates", recording_characterize
        )
        monkeypatch.setattr(estimator_mod, "train_corrections", refusing_train)
        return log

    def test_default_construction_loads_shipped_models(self, calls):
        for estimator in (Estimator(MAIA), default_estimator(),
                          default_estimator(cache=False)):
            summary = estimator.corrections.training_summary
            assert summary["n_samples"] == 200.0
            assert estimator.templates.device == MAIA.device
        assert calls == []

    @pytest.mark.parametrize("kwargs", [
        {"seed": 8},
        {"training_samples": 120},
        {"board": dataclasses.replace(MAIA, dram_latency_cycles=200)},
    ], ids=["seed=8", "samples=120", "board=custom"])
    def test_other_configurations_train(self, calls, kwargs):
        kwargs = {"board": MAIA, **kwargs}
        with pytest.raises(Trained):
            Estimator(**kwargs)
        assert calls == ["characterize", "train"]

    def test_injected_corrections_still_characterize(self, calls, estimator):
        Estimator(MAIA, corrections=estimator.corrections)
        assert calls == ["characterize"]
