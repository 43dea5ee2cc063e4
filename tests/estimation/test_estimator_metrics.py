"""Estimator cold-start observability: spans and histograms."""

import pytest

from repro import obs
from repro.estimation import Estimator, default_estimator
from repro.target import MAIA


@pytest.fixture()
def collected():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


class TestColdStartSpans:
    def test_characterize_and_train_traced(self, collected):
        Estimator(MAIA, training_samples=40, seed=11)
        names = {s.name for s in obs.tracer().spans}
        assert {"estimator.characterize", "estimator.train"} <= names
        char_s = obs.metrics().histogram("estimator.characterize_s")
        train_s = obs.metrics().histogram("estimator.train_s")
        assert char_s.count == 1 and char_s.total > 0
        assert train_s.count == 1 and train_s.total > 0

    def test_provided_models_skip_cold_start(self, collected):
        warm = Estimator(MAIA, training_samples=40, seed=11)
        obs.reset()
        Estimator(MAIA, templates=warm.templates,
                  corrections=warm.corrections)
        assert obs.metrics().histogram("estimator.characterize_s").count == 0
        assert obs.metrics().histogram("estimator.train_s").count == 0


class TestShippedModelsColdStart:
    def test_default_path_records_no_training(self, collected):
        Estimator(MAIA)
        default_estimator()
        names = {s.name for s in obs.tracer().spans}
        assert not names & {"estimator.characterize", "estimator.train"}
        assert obs.metrics().histogram("estimator.characterize_s").count == 0
        assert obs.metrics().histogram("estimator.train_s").count == 0
