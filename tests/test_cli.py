"""Tests for the command-line interface."""

import io
import json
import shutil

import pytest

from repro import obs
from repro.cli import _parse_overrides, build_parser, main


def run_cli(estimator, *argv):
    out = io.StringIO()
    code = main(list(argv), out=out, estimator=estimator)
    return code, out.getvalue()


class TestList:
    def test_lists_all_benchmarks(self, estimator):
        code, text = run_cli(estimator, "list")
        assert code == 0
        for name in ("dotproduct", "gemm", "blackscholes", "kmeans"):
            assert name in text

    def test_dataset_sizes_shown(self, estimator):
        _, text = run_cli(estimator, "list")
        assert "187,200,000" in text


class TestEstimate:
    def test_default_point(self, estimator):
        code, text = run_cli(estimator, "estimate", "tpchq6")
        assert code == 0
        assert "cycles" in text and "ALMs" in text and "fits   : True" in text

    def test_parameter_override(self, estimator):
        _, base = run_cli(estimator, "estimate", "tpchq6")
        _, wide = run_cli(estimator, "estimate", "tpchq6", "--set", "par=32")
        assert "'par': 32" in wide
        assert base != wide

    def test_bool_override(self, estimator):
        _, text = run_cli(
            estimator, "estimate", "tpchq6", "--set", "metapipe=false"
        )
        assert "'metapipe': False" in text

    def test_unknown_parameter_rejected(self, estimator):
        with pytest.raises(SystemExit, match="unknown parameters"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "bogus=1")

    def test_malformed_override_rejected(self, estimator):
        with pytest.raises(SystemExit, match="key=value"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "par")


class TestParseOverrides:
    def test_non_numeric_value_is_friendly_error_naming_key(self):
        with pytest.raises(SystemExit, match="--set tile"):
            _parse_overrides(["tile=abc"])

    def test_int_bool_and_float_values(self):
        assert _parse_overrides(["a=4", "b=true", "c=1.5"]) == {
            "a": 4, "b": True, "c": 1.5
        }

    def test_whole_float_coerces_for_integer_parameter(self, estimator):
        _, text = run_cli(
            estimator, "estimate", "tpchq6", "--set", "par=16.0"
        )
        assert "'par': 16" in text

    def test_fractional_float_for_integer_parameter_rejected(
        self, estimator
    ):
        with pytest.raises(SystemExit, match="--set par.*expects an integer"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "par=4.5")


class TestExplore:
    def test_prints_pareto(self, estimator):
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "40", "--seed", "2"
        )
        assert code == 0
        assert "Pareto-optimal" in text
        assert "params" in text

    def test_csv_dump(self, estimator, tmp_path):
        csv_path = tmp_path / "points.csv"
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("cycles,alms,dsps,brams,valid")
        assert len(lines) == 21


class TestSpeedup:
    def test_reports_speedup(self, estimator):
        code, text = run_cli(
            estimator, "speedup", "tpchq6", "--points", "40"
        )
        assert code == 0
        assert "speedup" in text and "x" in text


class TestCodegen:
    def test_stdout(self, estimator):
        code, text = run_cli(estimator, "codegen", "tpchq6")
        assert code == 0
        assert "extends Kernel" in text

    def test_file_output(self, estimator, tmp_path):
        path = tmp_path / "kernel.maxj"
        code, text = run_cli(
            estimator, "codegen", "tpchq6", "-o", str(path)
        )
        assert code == 0
        assert "extends Kernel" in path.read_text()


class TestPower:
    def test_reports_power_and_energy(self, estimator):
        code, text = run_cli(estimator, "power", "tpchq6")
        assert code == 0
        assert "total power" in text
        assert "energy/run" in text


class TestObservabilityFlags:
    def test_estimate_trace_writes_chrome_trace(self, estimator, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = run_cli(
            estimator, "estimate", "tpchq6", "--trace", str(trace)
        )
        assert code == 0
        assert f"wrote" in text and str(trace) in text
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc if e["ph"] == "X"}
        assert {"estimate", "cycles", "area"} <= names

    def test_explore_trace_has_nested_pipeline_spans(
        self, estimator, tmp_path
    ):
        # The cached estimator compiles each structural class once and
        # prices blocks of points from the plans inside explore.
        estimator.caches.clear()
        trace = tmp_path / "trace.json"
        code, _ = run_cli(
            estimator, "explore", "tpchq6", "--points", "15",
            "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"explore", "estimate.compile", "estimate.plan"} <= names
        explore_span = next(e for e in spans if e["name"] == "explore")
        est = next(e for e in spans if e["name"] == "estimate.plan")
        assert explore_span["ts"] <= est["ts"]
        assert (est["ts"] + est["dur"]
                <= explore_span["ts"] + explore_span["dur"] + 1e-6)

    def test_explore_no_cache_traces_per_point_estimates(
        self, estimator, tmp_path
    ):
        """--no-cache keeps the per-point hot path and its trace shape."""
        from repro.estimation import Estimator

        cold = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        trace = tmp_path / "trace.json"
        code, _ = run_cli(
            cold, "explore", "tpchq6", "--points", "15", "--no-cache",
            "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc if e["ph"] == "X"}
        assert {"explore", "estimate", "cycles", "area"} <= names
        assert "estimate.plan" not in names

    def test_explore_metrics_prints_counters_and_histogram(
        self, estimator
    ):
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "15", "--metrics"
        )
        assert code == 0
        rows = {line.split()[0]: line.split() for line in text.splitlines()
                if line.strip()}
        assert rows["explore"][1] == "1"
        assert rows["explore.sampled"][1] == "15"
        assert "explore.valid" in rows and "explore.unfit" in rows
        assert "p95" in text

    def test_explore_metrics_do_not_sum_running_counts(self, estimator):
        code, text = run_cli(
            estimator, "explore", "dotproduct", "--points", "3000",
            "--seed", "7", "--metrics",
        )
        assert code == 0
        rows = {line.split()[0]: line.split() for line in text.splitlines()
                if line.strip()}
        assert rows["dse.progress.points"][1] == "3,000"
        assert rows["explore.seed"][1] == "7"
        assert rows["dse.shard.done.shard"][1] == "0"

    def test_estimate_metrics_summary(self, estimator):
        code, text = run_cli(
            estimator, "estimate", "tpchq6", "--metrics"
        )
        assert code == 0
        rows = {line.split()[0]: line.split() for line in text.splitlines()
                if line.strip()}
        for name in ("estimate", "cycles", "area", "area.raw", "area.nn"):
            assert rows[name][1] == "1", name

    def test_codegen_trace_and_metrics(self, estimator, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = run_cli(
            estimator, "codegen", "tpchq6",
            "-o", str(tmp_path / "k.maxj"),
            "--trace", str(trace), "--metrics",
        )
        assert code == 0
        assert "codegen.lines" in text
        assert any(line.split()[:2] == ["codegen", "1"]
                   for line in text.splitlines())
        doc = json.loads(trace.read_text())
        assert any(e["name"] == "codegen" for e in doc)

    def test_flags_leave_observability_off_afterwards(
        self, estimator, tmp_path
    ):
        run_cli(
            estimator, "estimate", "tpchq6",
            "--trace", str(tmp_path / "t.json"), "--metrics",
        )
        assert not obs.trace_enabled()

    def test_without_flags_nothing_is_recorded(self, estimator):
        obs.reset()
        run_cli(estimator, "estimate", "tpchq6")
        assert obs.tracer().spans == [] and obs.tracer().instants == []


class TestParallelExploreFlags:
    def test_workers_zero_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--workers", "0")

    def test_negative_workers_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--workers", "-3")

    def test_negative_shards_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--shards expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--shards", "-1")

    def test_report_workers_validated(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "report", "--workers", "0")

    def test_conflicting_resume_and_checkpoint_dir(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="drop --checkpoint-dir"):
            run_cli(
                estimator, "explore", "tpchq6",
                "--checkpoint-dir", str(tmp_path / "a"),
                "--resume", str(tmp_path / "b"),
            )

    def test_resume_without_checkpoint_is_friendly(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint manifest"):
            run_cli(
                estimator, "explore", "tpchq6", "--points", "10",
                "--resume", str(tmp_path / "missing"),
            )

    def test_sharded_explore_matches_serial(self, estimator):
        _, serial = run_cli(
            estimator, "explore", "tpchq6", "--points", "30", "--seed", "2"
        )
        code, sharded = run_cli(
            estimator, "explore", "tpchq6", "--points", "30", "--seed", "2",
            "--shards", "3",
        )
        assert code == 0
        assert "3 shards x 1 workers" in sharded
        # Same Pareto table, modulo the engine's summary suffix.
        assert serial.splitlines()[1:] == sharded.splitlines()[1:]

    def test_checkpoint_resume_round_trip(self, estimator, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, _ = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--shards", "2", "--checkpoint-dir", str(ckpt),
        )
        assert code == 0
        assert (ckpt / "manifest.json").exists()
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--shards", "2", "--resume", str(ckpt),
        )
        assert code == 0
        assert "20 restored from checkpoint" in text


def _drop_seed(text):
    manifest = json.loads(text)
    del manifest["seed"]
    return json.dumps(manifest)


def _zero_shards(text):
    return json.dumps({**json.loads(text), "shards": 0})


def _zero_points(text):
    return json.dumps({**json.loads(text), "max_points": 0})


# Ways to damage a checkpoint's manifest.json: name -> text edit.
_BAD_MANIFESTS = {
    "truncated": lambda text: text[: len(text) // 2],
    "array": lambda text: "[]",
    "no-seed": _drop_seed,
    "unknown-benchmark": lambda text: text.replace('"tpchq6"', '"nosuch"'),
    "zero-shards": _zero_shards,
    "zero-points": _zero_points,
}


class TestHostileInput:
    """Bad input: one ``repro: error:`` line and exit status 2."""

    def assert_usage_error(self, estimator, capsys, argv, match):
        with pytest.raises(SystemExit, match=match) as exc:
            run_cli(estimator, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_benchmark(self, estimator, capsys):
        self.assert_usage_error(
            estimator, capsys, ["estimate", "nosuch"],
            "unknown benchmark 'nosuch'.*dotproduct",
        )

    def test_negative_points(self, estimator, capsys):
        self.assert_usage_error(
            estimator, capsys, ["explore", "gda", "--points", "-5"],
            "--points expects a positive integer",
        )

    def test_argparse_errors_are_one_line(self, estimator, capsys):
        """A bad flag value or a missing positional is not a usage block."""
        for argv, match in (
            (["explore", "dotproduct", "--points", "abc"],
             "--points expects a positive integer \\(got 'abc'\\)"),
            (["explore", "dotproduct", "--seed", "x"],
             "argument --seed: invalid int value"),
            (["explore"], "required: benchmark"),
        ):
            self.assert_usage_error(estimator, capsys, argv, match)
        with pytest.raises(SystemExit) as exc:
            run_cli(estimator, "explore", "--help")
        assert exc.value.code == 0

    def test_shard_range_outside_plan(self, estimator, capsys, tmp_path):
        self.assert_usage_error(
            estimator, capsys,
            ["explore", "dotproduct", "--points", "10", "--shards", "2",
             "--shard-range", "3:5", "--checkpoint-dir", str(tmp_path / "d")],
            "shard_range 3:5 outside the plan's 2 shards",
        )

    def test_zero_points_speedup(self, estimator, capsys):
        self.assert_usage_error(
            estimator, capsys, ["speedup", "gda", "--points", "0"],
            "--points expects a positive integer",
        )

    def test_illegal_design_point(self, estimator, capsys):
        for override, match in (
            ("tile=0", "illegal design point"),
            ("par_inner=true", "--set par_inner: dotproduct expects an "
             "integer \\(got True\\)"),
            ("metapipe=3", "--set metapipe: dotproduct expects true or "
             "false \\(got 3\\)"),
        ):
            self.assert_usage_error(
                estimator, capsys,
                ["estimate", "dotproduct", "--set", override], match,
            )

    def test_non_numeric_shards(self, estimator, capsys):
        for text in ("many", "auto"):
            self.assert_usage_error(
                estimator, capsys, ["explore", "gda", "--shards", text],
                "--shards expects a positive integer",
            )

    def test_negative_show(self, estimator, capsys, tmp_path):
        for argv in (["explore", "tpchq6", "--show", "-1"],
                     ["merge-checkpoints", str(tmp_path), "--show", "-1"]):
            self.assert_usage_error(
                estimator, capsys, argv,
                "--show expects a non-negative integer",
            )

    def test_merge_checkpoints_takes_no_cache_flag(
        self, estimator, capsys, tmp_path
    ):
        """--no-cache selects the per-design oracle of a sweep, so only
        the sweeping subcommands take it: merge-checkpoints estimates
        nothing, and estimate/power/analyze price one built design the
        same way on either setting."""
        for argv in (["merge-checkpoints", str(tmp_path)],
                     ["estimate", "gda"], ["power", "gda"],
                     ["analyze", "gda"]):
            self.assert_usage_error(
                estimator, capsys, argv + ["--no-cache"],
                "unrecognized arguments: --no-cache",
            )
        parser = build_parser()
        for argv in (["explore", "gda"], ["speedup", "gda"], ["report"]):
            assert parser.parse_args(argv + ["--no-cache"]).no_cache

    def test_auto_shards_flag_is_gone(self, estimator, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(estimator, "explore", "gda", "--auto-shards")
        assert exc.value.code == 2  # argparse: unrecognized argument

    def test_resume_without_manifest(self, estimator, capsys, tmp_path):
        self.assert_usage_error(
            estimator, capsys,
            ["explore", "tpchq6", "--points", "10",
             "--resume", str(tmp_path / "missing")],
            "no checkpoint manifest",
        )

    def test_merge_of_mismatched_run(self, estimator, capsys, tmp_path):
        ckpt = tmp_path / "partial"
        run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
            "--shards", "4", "--shard-range", "0:2",
            "--checkpoint-dir", str(ckpt),
        )
        capsys.readouterr()
        self.assert_usage_error(
            estimator, capsys, ["merge-checkpoints", str(ckpt)],
            "[Cc]onservation|planned",
        )

    @pytest.fixture(scope="class")
    def checkpoint(self, estimator, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("cli") / "ckpt"
        run_cli(estimator, "explore", "tpchq6", "--points", "20",
                "--shards", "2", "--checkpoint-dir", str(ckpt))
        return ckpt

    def damaged_copy(self, checkpoint, tmp_path, damage):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        manifest = ckpt / "manifest.json"
        manifest.write_text(_BAD_MANIFESTS[damage](manifest.read_text()))
        return ckpt

    @pytest.mark.parametrize("damage", sorted(_BAD_MANIFESTS))
    @pytest.mark.parametrize("command", ["merge-checkpoints", "resume"])
    def test_corrupt_manifest(self, estimator, capsys, tmp_path, checkpoint,
                              command, damage):
        ckpt = str(self.damaged_copy(checkpoint, tmp_path, damage))
        argv = (["merge-checkpoints", ckpt] if command == "merge-checkpoints"
                else ["explore", "tpchq6", "--points", "20", "--shards", "2",
                      "--resume", ckpt])
        self.assert_usage_error(estimator, capsys, argv, "checkpoint")

    def test_shard_range_over_corrupt_manifest(
        self, estimator, capsys, tmp_path, checkpoint
    ):
        ckpt = self.damaged_copy(checkpoint, tmp_path, "truncated")
        self.assert_usage_error(
            estimator, capsys,
            ["explore", "tpchq6", "--points", "20", "--shards", "2",
             "--shard-range", "0:1", "--checkpoint-dir", str(ckpt)],
            "corrupt checkpoint manifest",
        )

    def test_fresh_run_rewrites_corrupt_manifest(
        self, estimator, tmp_path, checkpoint
    ):
        ckpt = self.damaged_copy(checkpoint, tmp_path, "truncated")
        code, _ = run_cli(estimator, "explore", "tpchq6", "--points", "20",
                          "--shards", "2", "--checkpoint-dir", str(ckpt))
        assert code == 0
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["benchmark"] == "tpchq6" and manifest["shards"] == 2

    @pytest.mark.parametrize("argv", [
        ["estimate", "tpchq6", "--trace", "{missing}/t.json"],
        ["explore", "tpchq6", "--trace", "{missing}/t.json"],
        ["explore", "tpchq6", "--csv", "{missing}/points.csv"],
        ["speedup", "tpchq6", "--sim-trace", "{missing}/sim.json"],
        ["codegen", "tpchq6", "-o", "{missing}/design.maxj"],
        ["report", "-o", "{missing}/report.txt"],
        ["explore", "tpchq6", "--csv", "{tmp}"],
    ])
    def test_unwritable_output_path(self, estimator, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "nope", tmp=tmp_path)
                for a in argv]
        self.assert_usage_error(
            estimator, capsys, argv, "no such directory|is a directory"
        )
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("flag", ["--checkpoint-dir", "--resume"])
    @pytest.mark.parametrize("under", [False, True])
    def test_checkpoint_dir_is_a_file(self, estimator, capsys, tmp_path,
                                      flag, under):
        """A checkpoint directory that is a file, or lies under one."""
        path = tmp_path / "file"
        path.write_text("not a directory\n")
        self.assert_usage_error(
            estimator, capsys,
            ["explore", "dotproduct", "--points", "10",
             flag, str(path / "sub" if under else path)],
            f"checkpoint directory .*: {path} is not a directory",
        )
        assert path.read_text() == "not a directory\n"

    def test_subprocess_exit_status(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "estimate", "nosuch"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error: unknown benchmark")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["list"], ["explore", "dotproduct", "--points", "300"],
    ])
    def test_closed_stdout_is_quiet(self, argv):
        """``repro list | head -1``: a reader that closes the pipe early
        leaves stderr empty; here it is closed before the first write."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 141


class TestStreamingTraceFlag:
    def test_trace_streams_spans(self, estimator, tmp_path, monkeypatch):
        """The file is open, with every finished span, while the command
        runs, and the last output line counts its events."""
        from repro import cli

        estimator.caches.clear()
        stream = tmp_path / "trace.json"
        seen = []

        def cmd_explore(*args):
            seen.append(json.loads(stream.read_text() + "]"))
            with obs.span("inside"):
                pass
            seen.append(json.loads(stream.read_text() + "]"))
            return real_explore(*args)

        real_explore = cli.cmd_explore
        monkeypatch.setattr(cli, "cmd_explore", cmd_explore)
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "10",
            "--trace", str(stream),
        )
        assert code == 0
        assert [e["ph"] for e in seen[0]] == ["M"]
        assert [e["name"] for e in seen[1][1:]] == ["inside"]
        docs = json.loads(stream.read_text())
        last = text.splitlines()[-1]
        assert last.startswith(f"wrote {len(docs)} events to {stream}")
        assert any(d["name"] == "explore" for d in docs)
        assert any(d["name"] == "estimate.plan" for d in docs)


class TestShardRangeFlags:
    def test_malformed_range_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--shard-range expects A:B"):
            run_cli(estimator, "explore", "tpchq6", "--shard-range", "3")

    def test_non_integer_bounds_are_friendly(self, estimator):
        with pytest.raises(SystemExit, match="expects integer bounds"):
            run_cli(estimator, "explore", "tpchq6",
                    "--shard-range", "a:b")

    def test_empty_or_inverted_range_is_friendly(self, estimator):
        for bad in ("2:2", "3:1", "-1:2"):
            with pytest.raises(SystemExit, match="expects 0 <= A < B"):
                # = form so argparse accepts a leading minus sign
                run_cli(estimator, "explore", "tpchq6",
                        f"--shard-range={bad}")

    def test_range_requires_checkpoint_dir(self, estimator):
        with pytest.raises(SystemExit,
                           match="--shard-range requires --checkpoint-dir"):
            run_cli(estimator, "explore", "tpchq6", "--points", "10",
                    "--shards", "4", "--shard-range", "0:2")

    def test_ranged_explore_reports_range(self, estimator, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
            "--shards", "4", "--shard-range", "0:2",
            "--checkpoint-dir", str(ckpt),
        )
        assert code == 0
        assert "(range 0:2 of 4 shards)" in text


class TestMergeCheckpoints:
    def test_two_ranged_runs_merge_like_serial(self, estimator, tmp_path):
        _, serial = run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
        )
        ckpt = tmp_path / "shared"
        for rng in ("0:2", "2:4"):
            code, _ = run_cli(
                estimator, "explore", "tpchq6", "--points", "20",
                "--seed", "2", "--shards", "4", "--shard-range", rng,
                "--checkpoint-dir", str(ckpt),
            )
            assert code == 0
        code, merged = run_cli(estimator, "merge-checkpoints", str(ckpt))
        assert code == 0
        assert "merged 20 points from 4 shards" in merged
        # Identical Pareto table under the summary line.
        assert merged.splitlines()[1:] == serial.splitlines()[1:]

    def test_missing_range_fails_loudly(self, estimator, tmp_path):
        ckpt = tmp_path / "partial"
        run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
            "--shards", "4", "--shard-range", "0:2",
            "--checkpoint-dir", str(ckpt),
        )
        with pytest.raises(SystemExit, match="[Cc]onservation|planned"):
            run_cli(estimator, "merge-checkpoints", str(ckpt))

    def test_empty_directory_is_friendly(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint manifest"):
            run_cli(estimator, "merge-checkpoints", str(tmp_path / "none"))


class TestSimTraceFlag:
    def test_speedup_writes_sim_trace(self, estimator, tmp_path):
        dest = tmp_path / "sim.json"
        code, text = run_cli(
            estimator, "speedup", "tpchq6", "--points", "10",
            "--sim-trace", str(dest),
        )
        assert code == 0
        assert "simulated-time slices" in text and str(dest) in text
        doc = json.loads(dest.read_text())
        slices = [e for e in doc if e["ph"] == "X"]
        assert slices
        assert all(isinstance(e["args"]["cycles"], (int, float))
                   for e in slices)
