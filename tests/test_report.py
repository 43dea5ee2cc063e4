"""Tests for the consolidated report generator."""

import io
import warnings

import pytest

from repro.apps import get_benchmark
from repro.dse import explore
from repro.report import best_speedup, build_report, table3_errors


@pytest.fixture(scope="module")
def report_text(estimator):
    return build_report(estimator, dse_points=60)


class TestReport:
    def test_has_all_sections(self, report_text):
        assert "# Evaluation report" in report_text
        assert "## Table III" in report_text
        assert "## Table IV" in report_text
        assert "## Figure 6" in report_text
        assert "## Section IV-A" in report_text

    def test_all_benchmarks_listed(self, report_text):
        for name in ("dotproduct", "outerprod", "gemm", "tpchq6",
                     "blackscholes", "gda", "kmeans"):
            assert name in report_text

    def test_averages_row_present(self, report_text):
        assert "**average**" in report_text

    def test_paper_references_included(self, report_text):
        assert "4.8% / 7.5% / 12.3% / 6.1%" in report_text
        assert "6533x" in report_text

    def test_section_selection(self, estimator):
        text = build_report(estimator, dse_points=40, sections=["effects"])
        assert "## Section IV-A" in text
        assert "## Table III" not in text

    def test_metrics_section_shows_pipeline_instruments(self, report_text):
        assert "## Observability" in report_text
        rows = {line.split()[0] for line in report_text.splitlines()
                if line.strip()}
        assert {"estimate", "cycles", "area", "explore"} <= rows
        assert {"explore.sampled", "explore.valid"} <= rows

    def test_metrics_collection_turned_off_after_report(self, estimator):
        from repro import obs

        build_report(estimator, dse_points=40, sections=["metrics"])
        assert not obs.trace_enabled()

    def test_markdown_tables_well_formed(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|"):
                assert line.rstrip().endswith("|")

    def test_cli_report(self, estimator, tmp_path):
        from repro.cli import main

        out = io.StringIO()
        path = tmp_path / "report.md"
        code = main(
            ["report", "--points", "40", "-o", str(path)],
            out=out, estimator=estimator,
        )
        assert code == 0
        assert "# Evaluation report" in path.read_text()


class TestEmptySweep:
    """A one-point sweep leaves kmeans without a valid design."""

    def test_experiments_return_none(self, estimator):
        kmeans = get_benchmark("kmeans")
        assert explore(kmeans, estimator, max_points=1, seed=17).pareto == []
        assert table3_errors(kmeans, estimator, 1) is None
        assert explore(kmeans, estimator, max_points=1, seed=31).best is None
        assert best_speedup(kmeans, estimator, 1) is None

    def test_report_renders_placeholder_rows(self, estimator):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            text = build_report(estimator, dse_points=1,
                                sections=["table3", "figure6"])
        assert "nan" not in text
        assert "| kmeans | — | — | — | — |" in text
        assert "| kmeans | no valid design | 1.15x |" in text
        average = next(line for line in text.splitlines()
                       if line.startswith("| **average**"))
        assert "—" not in average
