"""Command-line interface: the framework's front door.

Subcommands mirror the paper's flow:

* ``repro list`` — Table II benchmark inventory;
* ``repro estimate BENCH [--set k=v ...]`` — estimate one design point;
* ``repro explore BENCH --points N`` — design space exploration + Pareto,
  with ``--workers``/``--shards N`` for the parallel engine,
  ``--checkpoint-dir``/``--resume`` for kill/resume, and
  ``--shard-range A:B`` for multi-host range sweeps (see
  ``docs/runtime.md``);
* ``repro merge-checkpoints DIR`` — reunite a (multi-host) checkpoint
  directory into the full point set and Pareto front, estimating nothing;
* ``repro speedup BENCH`` — best design vs the modeled CPU (Figure 6);
* ``repro codegen BENCH -o FILE`` — emit MaxJ for a design point;
* ``repro power BENCH`` — power/energy estimate (extension);
* ``repro analyze BENCH`` — bottleneck + roofline diagnosis (extension);
* ``repro report -o FILE`` — consolidated evaluation report.

``estimate``/``explore``/``merge-checkpoints``/``speedup``/``codegen``
accept ``--trace FILE`` (stream a Chrome trace-event file as spans
finish, so a killed run leaves a loadable partial trace — open in
chrome://tracing or Perfetto) and ``--metrics`` (print the span
summary: per-name wall-time distribution and attribute totals); see
``docs/observability.md``. The sweeping commands
(``explore``, ``speedup``, ``report``) also accept ``--no-cache`` to
build and estimate every design point instead of pricing it from
compiled class plans and caches (bit-identical results; see
``docs/estimation_performance.md``).

Bad input (an unknown benchmark, a non-positive count, a malformed
flag or flag value, a missing argument, a shard range outside the plan,
an output file that is a directory or in a missing one, a checkpoint
directory that is a file, lies under one or has no usable manifest) is
a one-line ``repro: error: ...`` on stderr and exit status 2. The
parser's ``type=`` callables check every flag value before any work.

Invoke as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import obs

if TYPE_CHECKING:  # handlers import what they run; see ``_main``
    from .estimation import Estimator


class UsageError(SystemExit):
    """Bad command-line input: one ``repro: error:`` line, exit status 2.

    ``str(error)`` is the message; :func:`main` prints it before the
    exit propagates.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.code = 2


class _Parser(argparse.ArgumentParser):
    """Argparse with every parse error raised as a :class:`UsageError`.

    Subparsers inherit the class, so a bad flag value or a missing
    argument anywhere is one ``repro: error:`` line, not a usage block;
    the ``type=`` callables below raise :class:`UsageError` themselves.
    """

    def error(self, message: str):
        raise UsageError(message)


def _benchmark(name: str):
    """The named benchmark, or a usage error listing the valid names."""
    from .apps import all_benchmarks, get_benchmark

    try:
        return get_benchmark(name)
    except KeyError:
        names = ", ".join(b.name for b in all_benchmarks())
        raise UsageError(
            f"unknown benchmark {name!r} (choose from: {names})"
        ) from None


def _count(flag: str, minimum: int = 1, hint: str = ""):
    """The type of a count flag: an integer of at least ``minimum``."""
    kind = "positive" if minimum else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise UsageError(
                f"{flag} expects a {kind} integer (got {text!r}){hint}"
            )
        return value

    return parse


def _shard_range(text: str) -> Tuple[int, int]:
    """The type of ``--shard-range A:B``: a half-open ``(A, B)`` tuple."""
    lo, sep, hi = text.partition(":")
    try:
        bounds = (int(lo), int(hi))
        problem = None if 0 <= bounds[0] < bounds[1] else "0 <= A < B"
    except ValueError:
        problem = "integer bounds A:B" if sep else "A:B (half-open, e.g. 0:4)"
    if problem:
        raise UsageError(f"--shard-range expects {problem}, got {text!r}")
    return bounds


def _output_path(flag: str):
    """The type of an output-file flag: a file in an existing directory,
    checked while parsing so a typo'd directory fails before any work."""

    def check(path: str) -> str:
        if path and Path(path).is_dir():
            raise UsageError(f"{flag} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise UsageError(f"{flag} {path}: no such directory")
        return path

    return check


def _checkpoint_dir(path: str) -> str:
    """The type of ``--checkpoint-dir``/``--resume``: a directory, or a
    path that can become one (no component of it is an existing file)."""
    part = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not part.is_dir():
        raise UsageError(
            f"checkpoint directory {path}: {part} is not a directory"
        )
    return path


def _parse_overrides(pairs: List[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
            continue
        try:
            out[key] = int(value)
        except ValueError:
            try:
                # Float passthrough for parameters that accept one
                # (e.g. capacity fractions); integer-only parameters
                # reject it downstream via the space's legality check.
                out[key] = float(value)
            except ValueError:
                raise UsageError(
                    f"--set {key}: expected an integer, float, or "
                    f"true/false, got {value!r}"
                ) from None
    return out


def _design(args):
    """``args``' benchmark at its ``--set`` point: ``(params, design)``,
    or a usage error."""
    from .ir import IRError

    bench, overrides = args.benchmark, _parse_overrides(args.set or [])
    dataset = bench.default_dataset()
    params = bench.default_params(dataset)
    unknown = set(overrides) - set(params)
    if unknown:
        raise UsageError(
            f"unknown parameters for {bench.name}: {sorted(unknown)} "
            f"(valid: {sorted(params)})"
        )
    for key, value in overrides.items():
        default = params[key]
        to_int = isinstance(default, int) and isinstance(value, float)
        if (isinstance(default, bool) != isinstance(value, bool)
                or to_int and not value.is_integer()):
            kind = "true or false" if isinstance(default, bool) else "an integer"
            raise UsageError(
                f"--set {key}: {bench.name} expects {kind} (got {value!r})"
            )
        params[key] = int(value) if to_int else value
    try:
        return params, bench.build(dataset, **params)
    except IRError as exc:
        raise UsageError(f"illegal design point {params}: {exc}") from None


def cmd_list(args, out, estimator=None) -> int:
    """``repro list``: print the Table II benchmark inventory."""
    from .apps import all_benchmarks

    print(f"{'name':14s} {'description':45s} dataset", file=out)
    for bench in all_benchmarks():
        ds = ", ".join(f"{k}={v:,}" for k, v in bench.default_dataset().items())
        print(f"{bench.name:14s} {bench.description:45s} {ds}", file=out)
    return 0


def cmd_estimate(args, out, estimator: Estimator) -> int:
    """``repro estimate``: estimate one design point."""
    params, design = _design(args)
    est = estimator.estimate(design)
    util = est.utilization()
    print(f"design point: {params}", file=out)
    print(f"cycles : {est.cycles:,.0f}  ({est.seconds * 1e3:.3f} ms)", file=out)
    print(f"ALMs   : {est.alms:,}  ({100 * util['alms']:.1f}%)", file=out)
    print(f"DSPs   : {est.dsps:,}  ({100 * util['dsps']:.1f}%)", file=out)
    print(f"BRAMs  : {est.brams:,}  ({100 * util['brams']:.1f}%)", file=out)
    print(f"fits   : {est.fits()}", file=out)
    return 0


def _parse_parallel_args(args):
    """Pair --resume with --checkpoint-dir: ``(checkpoint_dir, resume)``."""
    if args.resume and args.checkpoint_dir not in (None, "", args.resume):
        raise UsageError(
            "--resume DIR already names the checkpoint directory; "
            "drop --checkpoint-dir (or make them match)"
        )
    checkpoint_dir = args.resume or args.checkpoint_dir
    if args.shard_range is not None and checkpoint_dir is None:
        raise UsageError(
            "--shard-range requires --checkpoint-dir: ranged sweeps only "
            "make sense when their shards land somewhere "
            "'repro merge-checkpoints' can reunite them"
        )
    return checkpoint_dir, bool(args.resume)


def _print_pareto(result, show: int, out) -> None:
    """The explore/merge Pareto table (``--show`` rows)."""
    print(f"{'cycles':>14s} {'ALMs':>9s} {'BRAMs':>6s}  params", file=out)
    for point in result.pareto_sample(show):
        print(
            f"{point.cycles:14,.0f} {point.estimate.alms:9,} "
            f"{point.estimate.brams:6,}  {point.params}",
            file=out,
        )


def cmd_explore(args, out, estimator: Estimator) -> int:
    """``repro explore``: sample the design space and print the Pareto front."""
    from .dse import explore
    from .runtime import CheckpointError

    checkpoint_dir, resume = _parse_parallel_args(args)
    try:
        result = explore(
            args.benchmark, estimator, max_points=args.points,
            seed=args.seed, shards=args.shards, workers=args.workers,
            checkpoint_dir=checkpoint_dir, resume=resume,
            shard_range=args.shard_range,
        )
    except CheckpointError as exc:
        raise UsageError(str(exc)) from None
    except ValueError as exc:
        if args.shard_range is None:
            raise
        raise UsageError(str(exc)) from None  # range outside the plan
    parallel = ""
    if result.shards > 1 or result.workers > 1 or result.restored:
        parallel = f"; {result.shards} shards x {result.workers} workers"
        if result.shard_range is not None:
            lo, hi = result.shard_range
            parallel += (
                f" (range {lo}:{hi} of {result.total_shards} shards)"
            )
        if result.restored:
            parallel += f"; {result.restored} restored from checkpoint"
    print(
        f"explored {len(result.points)} points "
        f"({1e3 * result.seconds_per_point:.2f} ms/point); "
        f"{len(result.valid_points)} fit; "
        f"{len(result.pareto)} Pareto-optimal" + parallel,
        file=out,
    )
    _print_pareto(result, args.show, out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            names = list(result.points[0].params) if result.points else []
            writer.writerow(["cycles", "alms", "dsps", "brams", "valid"] + names)
            for p in result.points:
                writer.writerow(
                    [p.cycles, p.estimate.alms, p.estimate.dsps,
                     p.estimate.brams, int(p.valid)]
                    + [p.params[k] for k in names]
                )
        print(f"wrote {len(result.points)} points to {args.csv}", file=out)
    return 0


def cmd_merge_checkpoints(args, out, estimator: Estimator) -> int:
    """``repro merge-checkpoints``: reunite a checkpoint dir, estimate nothing.

    The collection step of a multi-host sweep: after N hosts ran
    ``repro explore ... --shard-range`` into one shared directory, this
    loads every shard file, re-plans the manifest's full partition, and
    prints the same summary/Pareto table a single-host explore would
    have. A missing range or duplicated shard fails loudly.
    """
    from .dse import merge_checkpoints
    from .runtime import CheckpointError, ConservationError

    try:
        result = merge_checkpoints(args.directory, estimator)
    except (CheckpointError, ConservationError) as exc:
        raise UsageError(str(exc)) from None
    print(
        f"merged {len(result.points)} points from {result.shards} shards "
        f"in {args.directory}; {len(result.valid_points)} fit; "
        f"{len(result.pareto)} Pareto-optimal",
        file=out,
    )
    _print_pareto(result, args.show, out)
    return 0


def cmd_speedup(args, out, estimator: Estimator) -> int:
    """``repro speedup``: best design vs the modeled CPU baseline."""
    from .report import best_speedup
    from .sim import build_timeline

    bench = args.benchmark
    found = best_speedup(bench, estimator, args.points, seed=args.seed)
    if found is None:
        print("no valid design found", file=out)
        return 1
    speedup, best, fpga_s, cpu_s = found
    print(f"best design: {best.params}", file=out)
    print(f"FPGA (simulated): {fpga_s * 1e3:.2f} ms", file=out)
    print(f"CPU (modeled)   : {cpu_s * 1e3:.2f} ms", file=out)
    print(f"speedup         : {speedup:.2f}x", file=out)
    if args.sim_trace:
        design = bench.build(bench.default_dataset(), **best.params)
        doc = build_timeline(design).to_chrome_trace()
        with open(args.sim_trace, "w") as fh:
            json.dump(doc, fh)
        slices = sum(1 for ev in doc if ev["ph"] == "X")
        print(
            f"wrote {slices} simulated-time slices to {args.sim_trace} "
            "(1 cycle = 1 us; open in https://ui.perfetto.dev)",
            file=out,
        )
    return 0


def _emit(text: str, path: Optional[str], out, what: str) -> int:
    """Write ``text`` to ``-o PATH`` and say so, or print it."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {what} to {path}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_codegen(args, out, estimator=None) -> int:
    """``repro codegen``: emit MaxJ for one design point."""
    from .codegen import generate_maxj

    source = generate_maxj(_design(args)[1])
    return _emit(source, args.output, out, f"{len(source.splitlines())} lines")


def cmd_power(args, out, estimator: Estimator) -> int:
    """``repro power``: power/energy estimate (extension)."""
    from .estimation.power import estimate_power

    params, design = _design(args)
    area = estimator.estimate_area(design)
    cycles = estimator.estimate_cycles(design)
    power = estimate_power(design, area, cycles, estimator.board)
    print(f"design point : {params}", file=out)
    print(f"total power  : {power.total_w:.2f} W "
          f"(static {power.static_w:.2f}, dynamic {power.dynamic_w:.2f}, "
          f"DRAM {power.dram_w:.2f})", file=out)
    print(f"activity     : {power.activity:.2f}", file=out)
    print(f"energy/run   : {power.energy_j:.4f} J "
          f"({power.runtime_s * 1e3:.2f} ms)", file=out)
    return 0


def cmd_analyze(args, out, estimator: Estimator) -> int:
    """``repro analyze``: bottleneck + roofline diagnosis (extension)."""
    from .analysis import analyze, diagnose
    from .sim import simulate as _simulate

    _, design = _design(args)
    diag = diagnose(design, estimator)
    print(diag.summary(), file=out)
    flops = args.benchmark.flops(args.benchmark.default_dataset())
    if flops > 0:
        runtime = _simulate(design).seconds
        point = analyze(design, flops, runtime, estimator.board)
        print(
            f"roofline: intensity {point.flops_per_byte:.2f} flop/byte; "
            f"datapath peak {point.peak_flops / 1e9:.1f} GFLOP/s; "
            f"bandwidth roof {point.bandwidth_roof_flops / 1e9:.1f} GFLOP/s; "
            f"achieved {point.achieved_flops / 1e9:.2f} GFLOP/s "
            f"({100 * point.efficiency:.0f}% of attainable)",
            file=out,
        )
    return 0


def cmd_report(args, out, estimator: Estimator) -> int:
    """``repro report``: consolidated evaluation report."""
    from .report import build_report

    text = build_report(estimator, dse_points=args.points,
                        workers=args.workers)
    return _emit(text, args.output, out, "report")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree: each subcommand's ``run`` default is its
    handler, and ``prices`` says whether that handler needs an estimator."""
    parser = _Parser(
        prog="repro",
        description="DHDL reproduction: estimate, explore, and generate "
        "FPGA accelerator designs (ISCA 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by the instrumented pipeline commands.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="FILE.json", type=_output_path("--trace"),
        help="stream a Chrome trace-event file of the run as spans "
        "finish; a killed run keeps a loadable partial trace (open in "
        "chrome://tracing or https://ui.perfetto.dev)",
    )
    obs_flags.add_argument(
        "--metrics", action="store_true",
        help="print a per-span wall-time summary (count, total, mean, "
        "p50, p95, max) and attribute totals after the command",
    )

    # Per-design oracle switch shared by the sweeping commands.
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="build and estimate every design point instead of pricing "
        "it from compiled class plans and caches (bit-identical results; "
        "see docs/estimation_performance.md)",
    )

    def command(name, run, help, parents=(), prices=True, bench=True,
                design=False):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(run=run, prices=prices)
        if bench:
            p.add_argument("benchmark", type=_benchmark,
                           help="benchmark name (see 'repro list')")
        if design:
            p.add_argument("--set", nargs="*", metavar="K=V",
                           help="override design parameters")
        return p

    workers_flag = _count("--workers",
                          hint="; use --workers 1 for the serial path")
    show_flag = _count("--show", minimum=0)

    command("list", cmd_list, "list the Table II benchmarks", prices=False,
            bench=False)

    command("estimate", cmd_estimate, "estimate one design point",
            [obs_flags], design=True)

    p = command("explore", cmd_explore, "design space exploration",
                [obs_flags, cache_flags])
    p.add_argument("--points", type=_count("--points"), default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--show", type=show_flag, default=8,
                   help="Pareto points to print")
    p.add_argument("--csv", type=_output_path("--csv"),
                   help="dump all points to a CSV file")
    p.add_argument("--workers", type=workers_flag, default=1,
                   help="worker processes (forked after estimator "
                   "training; 1 = serial in-process)")
    p.add_argument("--shards", metavar="N", type=_count(
                       "--shards", hint="; omit it to default to one "
                       "shard per worker"),
                   help="sampling shards (default: one per worker; any "
                   "count yields identical points for a fixed seed)")
    p.add_argument("--shard-range", metavar="A:B", type=_shard_range,
                   help="sweep only shards A..B-1 of the full partition "
                   "(multi-host: disjoint ranges into one "
                   "--checkpoint-dir, then 'repro merge-checkpoints')")
    p.add_argument("--checkpoint-dir", metavar="DIR", type=_checkpoint_dir,
                   help="write per-shard JSONL checkpoints to DIR")
    p.add_argument("--resume", metavar="DIR", type=_checkpoint_dir,
                   help="resume a killed sweep from DIR's checkpoints "
                   "(skips completed work)")

    p = command("merge-checkpoints", cmd_merge_checkpoints,
                "merge a (multi-host) checkpoint directory into the full "
                "point set — no estimation", [obs_flags], bench=False)
    p.add_argument("directory", metavar="DIR",
                   help="checkpoint directory written by one or more "
                   "'repro explore --checkpoint-dir' runs")
    p.add_argument("--show", type=show_flag, default=8,
                   help="Pareto points to print")

    p = command("speedup", cmd_speedup, "best design vs the CPU baseline",
                [obs_flags, cache_flags])
    p.add_argument("--points", type=_count("--points"), default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sim-trace", metavar="FILE.json",
                   type=_output_path("--sim-trace"),
                   help="write a simulated-time Chrome trace of the best "
                   "design's controller schedule (1 cycle = 1 us tick; "
                   "open in https://ui.perfetto.dev)")

    p = command("codegen", cmd_codegen, "emit MaxJ for a design point",
                [obs_flags], prices=False, design=True)
    p.add_argument("-o", "--output", type=_output_path("--output"),
                   help="output file (default: stdout)")

    command("power", cmd_power, "power/energy estimate (extension)",
            design=True)
    command("analyze", cmd_analyze,
            "bottleneck + roofline diagnosis (extension)", design=True)

    p = command("report", cmd_report, "consolidated evaluation report",
                [cache_flags], bench=False)
    p.add_argument("--points", type=_count("--points"), default=400,
                   help="DSE budget per benchmark")
    p.add_argument("--workers", type=workers_flag, default=1,
                   help="worker processes for the report's DSE sweeps")
    p.add_argument("-o", "--output", type=_output_path("--output"),
                   help="output file (default: stdout)")
    return parser


def main(argv: Optional[List[str]] = None, out=None,
         estimator: Optional[Estimator] = None) -> int:
    """CLI entry point; ``out`` and ``estimator`` are injectable for tests."""
    try:
        return _main(argv, out, estimator)
    except UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise


def _main(argv, out, estimator) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    if estimator is None and args.prices:
        # ``--no-cache`` shares the same trained models (no
        # recharacterization) but disables the estimation memoization
        # layer — the escape hatch that demonstrates cached results are
        # bit-identical (see ``docs/estimation_performance.md``).
        from .estimation import default_estimator

        estimator = default_estimator(cache=not getattr(args, "no_cache", False))
    trace_file = getattr(args, "trace", None)
    if not (trace_file or getattr(args, "metrics", False)):
        return args.run(args, out, estimator)

    obs.reset()
    obs.enable()
    # Opened before the command runs: every event is on disk as it
    # finishes, so a killed run keeps its trace so far.
    writer = obs.stream_trace(trace_file) if trace_file else None
    try:
        return args.run(args, out, estimator)
    finally:
        obs.disable()
        obs.stop_trace()
        if args.metrics:
            print(obs.span_summary(obs.tracer()), file=out)
        if writer is not None:
            print(
                f"wrote {writer.written} events to {trace_file} "
                "(open in chrome://tracing or https://ui.perfetto.dev)",
                file=out,
            )

