"""Tests for estimator model persistence."""

import dataclasses
import json

import pytest

from repro.apps import get_benchmark
from repro.estimation import save_estimator
from repro.estimation.store import load_estimator
from repro.target import MAIA


class TestRoundtrip:
    def test_identical_estimates_after_reload(self, estimator, tmp_path):
        path = tmp_path / "models.json"
        save_estimator(estimator, path)
        restored = load_estimator(path)
        bench = get_benchmark("tpchq6")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        a = estimator.estimate(design)
        b = restored.estimate(design)
        assert a.alms == b.alms
        assert a.brams == b.brams
        assert a.dsps == b.dsps
        assert a.cycles == b.cycles

    def test_file_is_valid_json(self, estimator, tmp_path):
        path = tmp_path / "models.json"
        save_estimator(estimator, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-estimator-v1"
        assert "templates" in payload and "corrections" in payload

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_estimator(path)

    def test_no_retraining_on_load(self, estimator, tmp_path):
        import time

        path = tmp_path / "models.json"
        save_estimator(estimator, path)
        t0 = time.perf_counter()
        load_estimator(path)
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_models_of_another_device(self, estimator, tmp_path):
        path = tmp_path / "models.json"
        save_estimator(estimator, path)
        other = dataclasses.replace(
            MAIA, device=dataclasses.replace(MAIA.device, name="Other FPGA")
        )
        with pytest.raises(ValueError, match="Stratix V.*Other FPGA"):
            load_estimator(path, other)
