"""Tests for the CI estimation perf gate (benchmarks/perf_gate.py).

The gate script lives outside the package (it is CI tooling, not
product code), so it is loaded by file path.  These tests cover the
pure gating logic and the skip/no-baseline paths — the measurement
itself runs in the Table IV benchmark, not here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf_gate.py"
)


@pytest.fixture(scope="module")
def gate():
    """The perf_gate module, loaded from benchmarks/ by file path."""
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEvaluate:
    def test_passes_within_tolerance(self, gate):
        ok, lines = gate.evaluate(
            {"gda": 2.0, "dotproduct": 2.4},
            {"gda": 1.5, "dotproduct": 2.9},
            tolerance=0.30,
        )
        assert ok
        assert len(lines) == 2
        assert all("ok" in line for line in lines)

    def test_fails_beyond_tolerance(self, gate):
        ok, lines = gate.evaluate(
            {"gda": 2.0, "dotproduct": 2.4},
            {"gda": 1.39, "dotproduct": 2.4},
            tolerance=0.30,
        )
        assert not ok
        assert any("REGRESSION" in line and "gda" in line for line in lines)
        assert any("dotproduct" in line and "ok" in line for line in lines)

    def test_boundary_is_inclusive(self, gate):
        """Exactly (1 - tolerance) * committed still passes."""
        ok, _ = gate.evaluate({"b": 2.0}, {"b": 1.4}, tolerance=0.30)
        assert ok

    def test_missing_measurement_fails(self, gate):
        ok, lines = gate.evaluate({"gda": 2.0}, {}, tolerance=0.30)
        assert not ok
        assert any("no fresh measurement" in line for line in lines)

    def test_faster_than_committed_passes(self, gate):
        ok, _ = gate.evaluate({"b": 2.0}, {"b": 5.0})
        assert ok


class TestBaselineAndSkip:
    def test_load_baseline_extracts_speedups(self, gate, tmp_path):
        doc = {
            "estimation_cache": {
                "benchmarks": {
                    "gda": {"speedup": 2.1, "cached_s": 0.1},
                    "dotproduct": {"speedup": 2.3, "cached_s": 0.05},
                }
            }
        }
        path = tmp_path / "BENCH_table4.json"
        path.write_text(json.dumps(doc))
        assert gate.load_baseline(path) == {"gda": 2.1, "dotproduct": 2.3}

    def test_load_baseline_missing_file_is_empty(self, gate, tmp_path):
        assert gate.load_baseline(tmp_path / "absent.json") == {}

    def test_load_baseline_without_section_is_empty(self, gate, tmp_path):
        path = tmp_path / "BENCH_table4.json"
        path.write_text(json.dumps({"schema": 1}))
        assert gate.load_baseline(path) == {}

    def test_skip_env_short_circuits(self, gate, monkeypatch, capsys):
        monkeypatch.setenv(gate.SKIP_ENV, "1")
        assert gate.main([]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_committed_baseline_has_gateable_ratios(self, gate):
        """The repo's committed BENCH_table4.json feeds the gate."""
        baseline = gate.load_baseline()
        if not baseline:
            pytest.skip("BENCH_table4.json not yet regenerated")
        assert set(baseline) >= {"dotproduct", "gda"}
        assert all(s >= gate.REGRESSION_TOLERANCE for s in baseline.values())


class TestRuntimeBaseline:
    def test_extracts_parallel_ratio(self, gate, tmp_path):
        doc = {
            "parallel_dse": {
                "workers": {
                    "1": {"speedup_vs_serial": 1.0},
                    "2": {"speedup_vs_serial": 1.8, "elapsed_s": 3.0},
                }
            },
        }
        path = tmp_path / "BENCH_table4.json"
        path.write_text(json.dumps(doc))
        assert gate.load_runtime_baseline(path) == {
            "parallel_dse.workers2": 1.8,
        }

    def test_missing_file_is_empty(self, gate, tmp_path):
        assert gate.load_runtime_baseline(tmp_path / "absent.json") == {}

    def test_partial_sections_extract_partially(self, gate, tmp_path):
        path = tmp_path / "BENCH_table4.json"
        path.write_text(json.dumps({"parallel_dse": {"workers": {"1": {}}}}))
        assert gate.load_runtime_baseline(path) == {}
        # A retired section in an older file is no longer gated.
        path.write_text(json.dumps({"work_stealing": {"speedup": 1.3}}))
        assert gate.load_runtime_baseline(path) == {}

    def test_runtime_keys_gate_through_evaluate(self, gate):
        """The same ratio logic gates runtime keys: 30% floor applies."""
        baseline = {"parallel_dse.workers2": 1.8}
        ok, _ = gate.evaluate(baseline, {"parallel_dse.workers2": 1.27})
        assert ok
        ok, lines = gate.evaluate(baseline, {"parallel_dse.workers2": 1.2})
        assert not ok
        assert any(
            "parallel_dse.workers2" in l and "REGRESSION" in l for l in lines
        )

    def test_committed_runtime_baseline_shape(self, gate):
        baseline = gate.load_runtime_baseline()
        if not baseline:
            pytest.skip("BENCH_table4.json lacks runtime sections")
        assert set(baseline) <= {"parallel_dse.workers2"}
        # parallel_dse can honestly be < 1.0 on a 1-core recording host
        # (fork overhead with nothing to overlap).
        assert all(v > 0.0 for v in baseline.values())
