"""Estimator cold-start observability: the characterize/train spans."""

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
        (char_s,) = obs.tracer().find("estimator.characterize")
        (train_s,) = obs.tracer().find("estimator.train")
        assert char_s.duration > 0 and char_s.attrs == {"board": MAIA.name}
        assert train_s.duration > 0 and train_s.attrs["samples"] == 40

    def test_provided_models_skip_cold_start(self, collected):
        warm = Estimator(MAIA, training_samples=40, seed=11)
        obs.reset()
        Estimator(MAIA, templates=warm.templates,
                  corrections=warm.corrections)
        assert not obs.tracer().find("estimator.characterize")
        assert not obs.tracer().find("estimator.train")


class TestShippedModelsColdStart:
    def test_default_path_records_no_training(self, collected):
        Estimator(MAIA)
        default_estimator()
        names = {s.name for s in obs.tracer().spans}
        assert not names & {"estimator.characterize", "estimator.train"}
