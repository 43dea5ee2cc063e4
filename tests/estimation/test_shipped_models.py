"""The shipped MAIA models are exactly what the default estimator trains.

``Estimator(MAIA)`` loads ``src/repro/estimation/models/maia.json``
instead of characterizing and training. This test retrains at the same
defaults and compares the saved bytes, so any change to synthesis,
characterization, sample generation or training that moves the models
fails here until the file is regenerated:

    PYTHONPATH=src python tests/estimation/test_shipped_models.py
"""

from __future__ import annotations

from pathlib import Path

from repro.estimation import Estimator, characterize_templates, save_estimator
from repro.estimation.store import shipped_models_path
from repro.estimation.train import DEFAULT_SAMPLES, train_corrections
from repro.target import MAIA


def trained_default() -> Estimator:
    """Characterize and train at the defaults, bypassing the shipped file."""
    templates = characterize_templates(MAIA.device)
    corrections = train_corrections(
        templates, MAIA, n_samples=DEFAULT_SAMPLES, seed=7
    )
    return Estimator(MAIA, templates=templates, corrections=corrections)


def test_shipped_models_match_training(tmp_path):
    path = tmp_path / "maia.json"
    save_estimator(trained_default(), path)
    assert path.read_bytes() == shipped_models_path().read_bytes(), (
        "shipped models drifted from training; regenerate with "
        "`PYTHONPATH=src python tests/estimation/test_shipped_models.py`"
    )


if __name__ == "__main__":
    target = Path(str(shipped_models_path()))
    target.parent.mkdir(exist_ok=True)
    save_estimator(trained_default(), target)
    print(f"wrote {target}")
