"""Per-shard JSONL checkpoints with kill/resume semantics.

A checkpointed explore writes one ``shard-NNNN.jsonl`` file per shard
plus a ``manifest.json`` describing the run (benchmark, dataset, seed,
budget, shard count). Shard files are append-only: each estimated point
becomes one JSON line carrying its global index, parameters, the full
estimate and a CRC-32 of the line. A shard is priced, written and
fsynced in blocks of :data:`BLOCK_POINTS` points, so a killed sweep
loses at most that many estimates. A terminal ``done`` line marks the
shard complete.

:func:`read_manifest` is the only reader of ``manifest.json`` and refuses
a missing, unparsable or mistyped one. :meth:`CheckpointStore.load`,
behind both ``--resume`` and ``repro merge-checkpoints``, checks it
against the requested run (resuming a different benchmark/seed/budget/
shard count is a :class:`CheckpointError`, not a silent wrong answer)
and decodes every readable record, estimate included. Complete shards
are never re-estimated; partial shards re-estimate only their missing
global indices and append to the same file. JSON round-trips floats
exactly, so a resumed Pareto front is byte-identical to an uninterrupted
run's. A record that fails its CRC, is malformed, or whose parameters
do not encode to the plan's point index at its position is refused
before any file is truncated; only a half-written final line (the kill
point) is dropped. Lines keep carrying ``params``, not the index, so
checkpoints written before points were indices restore unchanged.

The manifest always describes the *global* run (full shard partition and
point count), even when the writing plan covers only a shard range: N
hosts sweeping disjoint ``--shard-range`` subsets into one directory all
write/validate the same manifest. ``repro merge-checkpoints`` reads the
manifest back, re-plans the full partition, and merges one outcome per
shard file, refusing a missing or foreign point — the multi-host merge
protocol (see ``docs/runtime.md``).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from ..estimation.area import AreaEstimate
from ..estimation.counts import Counts
from ..estimation.estimator import DesignPoint, Estimate
from ..params import ParamSpace
from ..target.board import Board
from .sharding import Shard, ShardPlan

MANIFEST_NAME = "manifest.json"

#: Points priced, written and fsynced as one unit (``run_shard``'s
#: block): a killed sweep loses at most this many estimates.
BLOCK_POINTS = 100

# Keys every manifest must carry, with their JSON types.
_MANIFEST_TYPES = {"benchmark": str, "dataset": dict, "seed": int,
                   "max_points": int, "shards": int}

# Every shard-file line ends with this key; its value is the CRC-32 of
# the line's JSON with the key left out.
_CRC_KEY = ', "crc": '


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used for the requested run."""


def estimate_to_doc(est: Estimate) -> Dict[str, object]:
    """Serialize an :class:`Estimate` to a JSON-safe dict (lossless)."""
    # The area part's keys are AreaEstimate's and Counts' own fields.
    return {
        "design": est.design_name,
        "cycles": est.cycles,
        "seconds": est.seconds,
        "area": {**vars(est.area), "raw": dict(vars(est.area.raw))},
    }


def estimate_row(est: Estimate) -> Tuple[object, ...]:
    """An :class:`Estimate` as one flat tuple in :func:`estimate_to_doc`
    order: its design name, then its 15 numbers as the estimate holds them."""
    area, raw = est.area, est.area.raw
    return (
        est.design_name, est.cycles, est.seconds,
        area.alms, area.dsps, area.brams, area.regs,
        raw.luts_packable, raw.luts_unpackable, raw.regs, raw.dsps, raw.brams,
        area.routing_luts, area.duplicated_regs, area.duplicated_brams,
        area.unavailable_luts,
    )


def estimate_from_row(row: Sequence[object], board: Board) -> Estimate:
    """The :class:`Estimate` of an :func:`estimate_row` row, on ``board``."""
    area = AreaEstimate(*row[3:7], Counts(*row[7:12]), *row[12:])
    return Estimate(row[0], row[1], row[2], area, board)


def estimate_from_doc(doc: Dict[str, object], board: Board) -> Estimate:
    """Rebuild an :class:`Estimate` written by :func:`estimate_to_doc`.

    The board is not serialized (it is run configuration, not data);
    the caller supplies the estimator's board. A doc of any other shape
    raises :class:`CheckpointError`.
    """
    try:
        area, raw = doc["area"], doc["area"]["raw"]  # type: ignore[index]
        if len(area) != len(_AREA_KEYS) or len(raw) != len(_RAW_KEYS):
            raise KeyError("unexpected estimate fields")
        return estimate_from_row((
            doc["design"], doc["cycles"], doc["seconds"],  # type: ignore
            *(area[key] for key in _AREA_KEYS[:4]),
            *(raw[key] for key in _RAW_KEYS),
            *(area[key] for key in _AREA_KEYS[5:]),
        ), board)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed estimate in checkpoint: {exc!r}")


_AREA_KEYS = [f.name for f in fields(AreaEstimate)]  # "raw" is the fifth
_RAW_KEYS = [f.name for f in fields(Counts)]
# A point line without its CRC; estimate_to_doc's JSON, a slot per value.
_POINT = '{"t": "p", "i": %d, "params": %s, "est": %s}'
_ESTIMATE = json.dumps(estimate_to_doc(
    estimate_from_row(("%s",) * 16, None)  # type: ignore[arg-type]
)).replace('"%s"', "%s")


def params_spellings(space: ParamSpace) -> List[Dict[object, str]]:
    """Per parameter, in declaration order: each candidate's ``"name":
    value`` member as :mod:`json` spells it (``true``/``false`` for
    toggles), so a point's params object is a join, not a dump."""
    return [{value: f"{json.dumps(p.name)}: {json.dumps(value)}"
             for value in p.candidates} for p in space.params]


def _point_line(record: DesignPoint, spellings: List[Dict[object, str]]) -> str:
    """:func:`_line` of a point record's doc, byte for byte: the row's
    numbers spelled by :mod:`json`, each in its slot of the template, and
    the params joined from ``spellings`` (:func:`params_spellings` of the
    space whose decoded point, keys in declaration order, they are)."""
    est, text = record.estimate, "null"
    if est is not None:
        row = estimate_row(est)
        text = _ESTIMATE % (
            json.dumps(row[0]), *json.dumps(row[1:])[1:-1].split(", ")
        )
    params = ", ".join([spelled[value] for spelled, value
                        in zip(spellings, record.params.values())])
    return _seal(_POINT % (record.index, "{%s}" % params, text))


def _seal(body: str) -> str:
    """One shard-file line: the JSON object ``body``, closed by its CRC-32."""
    return f"{body[:-1]}{_CRC_KEY}{zlib.crc32(body.encode())}}}\n"


def _line(doc: Dict[str, object]) -> str:
    """One shard-file line: ``doc`` as JSON, closed by its CRC-32."""
    return _seal(json.dumps(doc))


def _parse_line(line: str) -> Optional[Dict[str, object]]:
    """Inverse of :func:`_line`; ``None`` for a line that is not JSON.

    A JSON line that is not an object or fails its CRC raises
    :class:`CheckpointError`.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    cut = line.rfind(_CRC_KEY)
    crc = zlib.crc32((line[:cut] + "}").encode())
    if not isinstance(doc, dict) or cut < 0 or doc.pop("crc", None) != crc:
        raise CheckpointError(f"corrupt checkpoint line: {line[:80]!r}")
    return doc


class ShardWriter:
    """Append-only JSONL writer for one shard's checkpoint file.

    Every call writes its lines and fsyncs them, so the durability unit
    is whatever the caller hands over: a block of at most
    :data:`BLOCK_POINTS` records, the ``done`` marker, or the close.
    """

    def __init__(
        self, path: Union[str, Path], spellings: List[Dict[object, str]]
    ) -> None:
        self.path = Path(path)
        self.spellings = spellings
        # Safe to append: begin() left it absent or cut to its readable prefix.
        self._fh: Optional[IO[str]] = open(self.path, "a")

    def write(self, records: Sequence[DesignPoint]) -> None:
        """Append one block of point records and fsync them together."""
        assert self._fh is not None, "writer already closed"
        spellings = self.spellings
        self._fh.write("".join(_point_line(r, spellings) for r in records))
        self._sync()

    def done(self, shard: Shard) -> None:
        """Write the terminal marker declaring the shard complete."""
        assert self._fh is not None, "writer already closed"
        self._fh.write(
            _line({"t": "done", "shard": shard.index, "points": len(shard)})
        )
        self._sync()

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Fsync and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None


@dataclass
class ShardState:
    """What a checkpoint directory already knows about one shard.

    ``size`` is the byte length of the file's readable prefix: everything
    from the first torn or unreadable line on is lost work.
    """

    records: Dict[int, DesignPoint] = field(default_factory=dict)
    complete: bool = False
    size: int = 0


class CheckpointStore:
    """One run's checkpoint directory: manifest plus per-shard files."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        # The run's params spellings, set by begin() (writers use them).
        self.spellings: Optional[List[Dict[object, str]]] = None

    def shard_path(self, index: int) -> Path:
        """Path of shard ``index``'s JSONL file."""
        return self.directory / f"shard-{index:04d}.jsonl"

    # -- manifest ----------------------------------------------------------

    def _manifest_doc(
        self, benchmark: str, dataset: Dict[str, int], plan: ShardPlan
    ) -> Dict[str, object]:
        # Always the *global* run: a ranged plan writes the same manifest
        # as every other host of the same split, so any of them (or the
        # merge tool) can validate against it.
        return {
            "schema": 3,
            "benchmark": benchmark,
            "dataset": dict(dataset),
            "seed": plan.seed,
            "max_points": plan.max_points,
            "shards": plan.planned_shards,
            "total_points": plan.global_points,
            "space_cardinality": plan.space_cardinality,
        }

    def begin(
        self,
        benchmark: str,
        dataset: Dict[str, int],
        plan: ShardPlan,
        resume: bool,
        board: Board,
    ) -> Dict[int, ShardState]:
        """Prepare the directory and return per-shard restored state.

        Fresh runs (``resume=False``) write the manifest and truncate
        stale files for the plan's *own* shards only — a host assigned a
        shard range never clobbers its siblings' shard files. A ranged
        plan first checks an existing manifest (another host of the same
        split wrote it) and refuses a mismatched or unreadable one; a
        whole-run plan just overwrites it. Resumed runs :meth:`load`
        everything before cutting each file back to its readable prefix
        (dropping a half-written kill-point line), so a refused
        checkpoint is left untouched.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self.spellings = params_spellings(plan.space)
        if resume:
            states = self.load(benchmark, dataset, plan, board)
            for index, state in states.items():
                path = self.shard_path(index)
                if path.exists():
                    os.truncate(path, state.size)
            return states
        expected = self._manifest_doc(benchmark, dataset, plan)
        manifest = self.directory / MANIFEST_NAME
        if plan.is_partial and manifest.exists():
            self._check_manifest(expected, "add this shard range to it")
        manifest.write_text(json.dumps(expected, indent=2) + "\n")
        for shard in plan.shards:
            path = self.shard_path(shard.index)
            if path.exists():
                path.unlink()
        return {shard.index: ShardState() for shard in plan.shards}

    def _check_manifest(
        self, expected: Dict[str, object], action: str
    ) -> None:
        """Refuse (:class:`CheckpointError`) a manifest unlike ``expected``."""
        manifest = read_manifest(self.directory)
        detail = ", ".join(
            f"{key}: checkpoint={manifest.get(key)!r} vs run={value!r}"
            for key, value in expected.items()
            if manifest.get(key) != value
        )
        if detail:
            raise CheckpointError(
                f"checkpoint in {self.directory} belongs to a different "
                f"run ({detail}); refusing to {action}"
            )

    def load(
        self,
        benchmark: str,
        dataset: Dict[str, int],
        plan: ShardPlan,
        board: Board,
    ) -> Dict[int, ShardState]:
        """Validate the manifest and load ``plan``'s shard states.

        The read path behind both ``--resume`` and ``merge-checkpoints``.
        Every restored record's estimate is decoded here, against
        ``board``. Raises :class:`CheckpointError` on a missing, corrupt
        or mismatched manifest, or on a corrupt shard file.
        """
        self._check_manifest(
            self._manifest_doc(benchmark, dataset, plan), "resume"
        )
        return {
            shard.index: self._load_shard(shard, plan.space, board)
            for shard in plan.shards
        }

    def _load_shard(
        self, shard: Shard, space: ParamSpace, board: Board
    ) -> ShardState:
        state = ShardState()
        path = self.shard_path(shard.index)
        if not path.exists():
            return state
        planned = space.points(shard.points)
        for raw in path.read_bytes().splitlines(keepends=True):
            doc = (_parse_line(raw.decode(errors="replace"))
                   if raw.endswith(b"\n") else None)
            if doc is None:
                break  # half-written tail from a kill; re-estimate from here
            state.size += len(raw)
            if doc.get("t") == "done":
                state.complete = True
                continue
            if doc.get("t") != "p":
                continue
            index = doc.get("i")
            if type(index) is not int or index not in shard.indices:
                raise CheckpointError(
                    f"{path} contains point index {index!r}, outside shard "
                    f"{shard.index}'s range [{shard.start}, "
                    f"{shard.indices.stop})"
                )
            offset = index - shard.start
            try:
                matches = (space.encode(doc.get("params"))  # type: ignore
                           == shard.points[offset])
            except ValueError:
                matches = False
            if not matches or "est" not in doc:
                raise CheckpointError(
                    f"{path}: record {index} does not match the planned "
                    f"point {planned[offset]!r}"
                )
            est = doc["est"]
            state.records[index] = DesignPoint(
                planned[offset],
                None if est is None else estimate_from_doc(est, board),
                index,
            )
        if state.complete and len(state.records) != len(shard):
            # A 'done' marker without all records means the file was
            # hand-edited or truncated after completion: re-estimate.
            state.complete = False
        return state

    def writer(self, shard: Shard) -> ShardWriter:
        """Open the shard's JSONL file for appending (after :meth:`begin`)."""
        assert self.spellings is not None, "writer() before begin()"
        return ShardWriter(self.shard_path(shard.index), self.spellings)


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a checkpoint directory's run manifest.

    The only reader of ``manifest.json``. The manifest names the
    benchmark, dataset, seed, budget, and global shard count: everything
    ``repro merge-checkpoints`` needs to re-plan the partition. One that
    is missing, not a JSON object, or lacks one of those keys with the
    right type raises :class:`CheckpointError`.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise CheckpointError(
            f"no checkpoint manifest in {directory} — was this directory "
            "written by 'explore --checkpoint-dir'?"
        )
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint manifest {path} is not an object")
    for key, kind in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(
                f"checkpoint manifest {path}: {key!r} must be a JSON "
                f"{'object' if kind is dict else kind.__name__}, "
                f"got {value!r}"
            )
    return manifest
