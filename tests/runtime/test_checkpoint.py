"""Checkpoint/resume: kill round-trips, no re-estimation, conservation."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore
from repro.runtime import (
    CheckpointError,
    CheckpointStore,
    estimate_from_doc,
    estimate_to_doc,
    plan_shards,
)
from repro.runtime.checkpoint import BLOCK_POINTS, _line

POINTS = 40
SEED = 5


@pytest.fixture()
def bench():
    return get_benchmark("tpchq6")


@pytest.fixture()
def serial(estimator, bench):
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


def fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


class TestEstimateRoundTrip:
    def test_lossless_via_json(self, estimator, serial):
        for point in serial.points[:5]:
            doc = json.loads(json.dumps(estimate_to_doc(point.estimate)))
            back = estimate_from_doc(doc, estimator.board)
            assert back.cycles == point.estimate.cycles
            assert back.seconds == point.estimate.seconds
            assert back.alms == point.estimate.alms
            assert back.area == point.estimate.area
            assert back.fits() == point.estimate.fits()


class TestKillResume:
    def test_full_resume_skips_all_estimation(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        obs.reset()
        obs.enable()
        try:
            resumed = explore(bench, estimator, max_points=POINTS,
                              seed=SEED, shards=4, checkpoint_dir=ckpt,
                              resume=True)
            priced = [s.name for s in obs.tracer().spans
                      if s.name in ("estimate", "estimate.plan", "area.nn")]
            (exp,) = obs.tracer().find("explore")
            restored = exp.attrs["restored"]
        finally:
            obs.disable()
            obs.reset()
        assert priced == []  # completed shards are never re-estimated
        assert restored == POINTS
        assert resumed.restored == POINTS
        assert fingerprint(resumed) == fingerprint(serial)

    def test_killed_mid_sweep_resumes_missing_points_only(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        # Simulate a kill: one shard never ran, another died mid-file
        # (truncated, losing its done marker and its last records), and a
        # third has a half-written final line.
        (ckpt / "shard-0003.jsonl").unlink()
        partial = (ckpt / "shard-0001.jsonl").read_text().splitlines()
        kept = partial[: len(partial) // 2]
        (ckpt / "shard-0001.jsonl").write_text("\n".join(kept) + "\n")
        torn = (ckpt / "shard-0002.jsonl").read_text()
        (ckpt / "shard-0002.jsonl").write_text(torn[:-40])

        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=4, checkpoint_dir=ckpt, resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert 0 < resumed.restored < POINTS

        # After the resume every shard file is complete again.
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), SEED, POINTS, 4)
        states = CheckpointStore(ckpt).load(
            bench.name, dataset, plan, estimator.board
        )
        assert all(state.complete for state in states.values())
        assert sum(len(state.records) for state in states.values()) == POINTS

    def test_failed_block_resumes_from_last_whole_block(
        self, estimator, bench, tmp_path
    ):
        """A sweep that dies pricing its k-th block leaves exactly the
        k - 1 blocks before it on disk; the resume prices the rest."""
        k, points = 3, 3 * BLOCK_POINTS + 50
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RuntimeError, match="killed"):
            explore(bench, _FailingEstimator(estimator, k), max_points=points,
                    seed=SEED, checkpoint_dir=ckpt)
        resumed = explore(bench, estimator, max_points=points, seed=SEED,
                          checkpoint_dir=ckpt, resume=True)
        assert resumed.restored == (k - 1) * BLOCK_POINTS
        serial = explore(bench, estimator, max_points=points, seed=SEED)
        assert full_fingerprint(resumed) == full_fingerprint(serial)

    def test_fsync_per_block_done_and_close(
        self, estimator, bench, tmp_path, monkeypatch
    ):
        """Records reach the disk in blocks of at most BLOCK_POINTS."""
        import repro.runtime.checkpoint as checkpoint

        ckpt = tmp_path / "ckpt"
        synced = []
        real_fsync = checkpoint.os.fsync

        def fsync(fd):
            real_fsync(fd)
            synced.append(len(
                (ckpt / "shard-0000.jsonl").read_text().splitlines()
            ))

        monkeypatch.setattr(checkpoint.os, "fsync", fsync)
        explore(bench, estimator, max_points=2 * BLOCK_POINTS + 50,
                seed=SEED, checkpoint_dir=ckpt)
        blocks = [BLOCK_POINTS, 2 * BLOCK_POINTS, 2 * BLOCK_POINTS + 50]
        assert synced == blocks + [blocks[-1] + 1] * 2  # done, close

    def test_resume_works_across_worker_counts(
        self, estimator, bench, serial, tmp_path
    ):
        """Shard 0 deleted, shard 1 cut mid-line, shard 2 complete: a
        forked resume only appends, so every file keeps its readable
        prefix byte for byte and the complete one is untouched."""
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        (ckpt / "shard-0000.jsonl").unlink()
        cut = ckpt / "shard-0001.jsonl"
        cut.write_bytes(cut.read_bytes()[: cut.stat().st_size // 2])
        prefix = cut.read_bytes()[: cut.read_bytes().rindex(b"\n") + 1]
        assert prefix  # the cut keeps at least one whole record
        complete = (ckpt / "shard-0002.jsonl").read_bytes()
        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=4, workers=2, checkpoint_dir=ckpt,
                          resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert cut.read_bytes().startswith(prefix)
        assert cut.stat().st_size > len(prefix)
        assert (ckpt / "shard-0000.jsonl").exists()
        assert (ckpt / "shard-0002.jsonl").read_bytes() == complete

    def test_resume_heartbeat_reports_every_shard_once(
        self, estimator, bench, tmp_path
    ):
        """A 1,000-point, 2-shard sweep whose shard 0 is cut to 300
        lines: the resume reports shard 0 as 300 restored + 200
        estimated, and complete shard 1 as 500 restored."""
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=1000, seed=SEED, shards=2,
                checkpoint_dir=ckpt)
        cut = ckpt / "shard-0000.jsonl"
        cut.write_text("\n".join(cut.read_text().splitlines()[:300]) + "\n")
        obs.reset()
        obs.enable()
        try:
            explore(bench, estimator, max_points=1000, seed=SEED, shards=2,
                    checkpoint_dir=ckpt, resume=True)
            done = [e.attrs for e in obs.tracer().instants
                    if e.name == "dse.shard.done"]
        finally:
            obs.disable()
            obs.reset()
        by_shard = {e["shard"]: e for e in done}
        assert len(done) == len(by_shard) == 2
        assert {k: by_shard[0][k] for k in ("points", "estimated",
                                           "restored")} == {
            "points": 500, "estimated": 200, "restored": 300}
        assert {k: by_shard[1][k] for k in ("points", "estimated",
                                           "restored")} == {
            "points": 500, "estimated": 0, "restored": 500}
        assert all(e["estimated"] + e["restored"] == e["points"]
                   for e in done)
        assert sorted(e["completed_shards"] for e in done) == [1, 2]
        assert all(e["total_shards"] == 2 for e in done)


class _FailingEstimator:
    """``estimator``, except that its k-th pricing call raises."""

    def __init__(self, estimator, k):
        self.board = estimator.board
        self._estimator = estimator
        self._calls_left = k

    def estimate_points(self, *args):
        self._calls_left -= 1
        if not self._calls_left:
            raise RuntimeError("killed")
        return self._estimator.estimate_points(*args)


def _parent_estimate_doc(est):
    """An estimate as shard files wrote it before block writes: ``raw``
    last in ``area``."""
    a = est.area
    return {
        "design": est.design_name,
        "cycles": est.cycles,
        "seconds": est.seconds,
        "area": {
            "alms": a.alms,
            "dsps": a.dsps,
            "brams": a.brams,
            "regs": a.regs,
            "routing_luts": a.routing_luts,
            "duplicated_regs": a.duplicated_regs,
            "duplicated_brams": a.duplicated_brams,
            "unavailable_luts": a.unavailable_luts,
            "raw": {
                "luts_packable": a.raw.luts_packable,
                "luts_unpackable": a.raw.luts_unpackable,
                "regs": a.raw.regs,
                "dsps": a.raw.dsps,
                "brams": a.raw.brams,
            },
        },
    }


class TestParentLineFormat:
    def test_parent_format_restores_and_resumes(
        self, estimator, bench, tmp_path
    ):
        """Shard files in the earlier line format (a per-point ``"lat"``,
        ``raw`` last) restore, and a partial one resumes to the serial
        sweep."""
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED, shards=4,
                checkpoint_dir=ckpt)
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), SEED, POINTS, 4)
        states = CheckpointStore(ckpt).load(
            bench.name, dataset, plan, estimator.board
        )
        for shard in plan.shards:
            records = [states[shard.index].records[i] for i in shard.indices]
            if shard.index == 1:
                records = records[: len(records) // 2]  # killed mid-shard
            lines = [
                _line({"t": "p", "i": r.index, "params": r.params,
                       "lat": 1.5e-05,
                       "est": _parent_estimate_doc(r.estimate)})
                for r in records
            ]
            if shard.index != 1:
                lines.append(_line({"t": "done", "shard": shard.index,
                                    "points": len(shard)}))
            CheckpointStore(ckpt).shard_path(shard.index).write_text(
                "".join(lines)
            )
        dropped = len(plan.shards[1]) - len(plan.shards[1]) // 2
        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=4, checkpoint_dir=ckpt, resume=True)
        assert resumed.restored == POINTS - dropped
        serial = explore(bench, estimator, max_points=POINTS, seed=SEED)
        assert full_fingerprint(resumed) == full_fingerprint(serial)


class TestManifestValidation:
    def test_resume_rejects_different_run(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError, match="different run"):
            explore(bench, estimator, max_points=POINTS, seed=SEED + 1,
                    shards=4, checkpoint_dir=ckpt, resume=True)
        with pytest.raises(CheckpointError, match="different run"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=2, checkpoint_dir=ckpt, resume=True)

    def test_resume_requires_manifest(self, estimator, bench, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    checkpoint_dir=tmp_path / "empty", resume=True)

    def test_foreign_point_index_rejected(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        path = ckpt / "shard-0000.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        del doc["crc"]
        doc["i"] = 9999
        path.write_text(_line(doc))  # re-sealed, so the CRC check passes
        with pytest.raises(CheckpointError, match="outside shard"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=4, checkpoint_dir=ckpt, resume=True)

    def test_fresh_run_truncates_stale_files(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        again = explore(bench, estimator, max_points=POINTS, seed=SEED,
                        shards=4, checkpoint_dir=ckpt)
        assert again.restored == 0
        assert fingerprint(again) == fingerprint(serial)


class TestCheckpointStoreUnits:
    def test_writer_append_mode(self, tmp_path, estimator, bench):
        from repro.params import ParamSpace

        space = bench.param_space(bench.default_dataset())
        plan = plan_shards(space, SEED, 8, 2)
        store = CheckpointStore(tmp_path / "c")
        states = store.begin(bench.name, bench.default_dataset(), plan,
                             resume=False, board=estimator.board)
        assert set(states) == {s.index for s in plan.shards}
        assert isinstance(space, ParamSpace)


def full_fingerprint(result):
    """Order, params and every serialized estimate field of every point."""
    return [(p.params, estimate_to_doc(p.estimate)) for p in result.points]


@pytest.fixture(scope="module")
def written(estimator, tmp_path_factory):
    """A finished 4-shard checkpoint plus the serial sweep it must equal."""
    bench = get_benchmark("tpchq6")
    ckpt = tmp_path_factory.mktemp("fuzz") / "ckpt"
    explore(bench, estimator, max_points=POINTS, seed=SEED, shards=4,
            checkpoint_dir=ckpt)
    serial = explore(bench, estimator, max_points=POINTS, seed=SEED)
    return ckpt, full_fingerprint(serial)


def resume(estimator, ckpt):
    return explore(get_benchmark("tpchq6"), estimator, max_points=POINTS,
                   seed=SEED, shards=4, checkpoint_dir=ckpt, resume=True)


class TestCorruptRecordsRefused:
    """Lines that parse and carry a valid CRC but are not a record of this
    plan: each must be refused, never restored as something else."""

    def _reseal_first(self, ckpt, edit):
        path = ckpt / "shard-0001.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        del doc["crc"]
        lines[0] = _line(edit(doc)).rstrip("\n")
        path.write_text("\n".join(lines) + "\n")

    def _check(self, estimator, written, tmp_path, edit, match):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(written[0], ckpt)
        self._reseal_first(ckpt, edit)
        with pytest.raises(CheckpointError, match=match):
            resume(estimator, ckpt)

    def test_missing_index(self, estimator, written, tmp_path):
        def edit(doc):
            del doc["i"]
            return doc
        self._check(estimator, written, tmp_path, edit, "point index None")

    def test_json_value_that_is_not_an_object(
        self, estimator, written, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(written[0], ckpt)
        path = ckpt / "shard-0001.jsonl"
        path.write_text("5\n" + path.read_text())
        with pytest.raises(CheckpointError, match="corrupt checkpoint line"):
            resume(estimator, ckpt)

    def test_estimate_missing_a_field(self, estimator, written, tmp_path):
        def edit(doc):
            del doc["est"]["area"]["alms"]
            return doc
        self._check(estimator, written, tmp_path, edit, "malformed estimate")

    def test_params_of_another_point(self, estimator, written, tmp_path):
        def edit(doc):
            doc["i"] += 1  # the next point's slot, this point's params
            return doc
        self._check(estimator, written, tmp_path, edit, "planned point")

    @pytest.mark.parametrize("params", [
        {"tile": 3},  # not a candidate of the planned point's space
        {"extra": 1},  # a key the space does not have
        None,  # not an object at all
    ], ids=["non-candidate", "extra-key", "null"])
    def test_params_that_encode_to_no_planned_point(
        self, estimator, written, tmp_path, params
    ):
        def edit(doc):
            doc["params"] = (None if params is None
                             else {**doc["params"], **params})
            return doc
        self._check(estimator, written, tmp_path, edit, "planned point")

    def test_non_integer_index(self, estimator, written, tmp_path):
        def edit(doc):
            doc["i"] = float(doc["i"])  # equal to an index in range
            return doc
        self._check(estimator, written, tmp_path, edit, "outside shard")

    def test_unsealed_edit_fails_its_crc(self, estimator, written, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(written[0], ckpt)
        path = ckpt / "shard-0001.jsonl"
        text = path.read_text()
        doc = json.loads(text.splitlines()[0])
        cycles = json.dumps(doc["est"]["cycles"])
        path.write_text(text.replace(cycles, cycles + "1", 1))
        with pytest.raises(CheckpointError, match="corrupt checkpoint line"):
            resume(estimator, ckpt)

    def test_load_refuses_non_estimate_docs(
        self, estimator, written, tmp_path
    ):
        """Estimates decode at load: a CRC-valid record whose estimate is
        not one is refused before ``begin`` cuts any shard file back."""
        bench = get_benchmark("tpchq6")
        dataset = bench.default_dataset()
        plan = plan_shards(bench.param_space(dataset), SEED, POINTS, 4)
        for n, est in enumerate((5, "x", [], {"area": {}})):
            ckpt = tmp_path / f"ckpt{n}"
            shutil.copytree(written[0], ckpt)
            torn = ckpt / "shard-0000.jsonl"  # loaded first; has a torn tail
            torn.write_bytes(torn.read_bytes()[:-40])
            self._reseal_first(ckpt, lambda doc: {**doc, "est": est})
            before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
            with pytest.raises(CheckpointError, match="malformed estimate"):
                CheckpointStore(ckpt).begin(
                    bench.name, dataset, plan, resume=True,
                    board=estimator.board,
                )
            assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before


# One corruption: (kind, shard file, position in [0, 1), JSON value).
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 50), st.floats(0, 1e9),
    st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["i", "t", "est"]), st.integers(),
                    max_size=2),
)
_CORRUPTIONS = st.tuples(
    st.sampled_from(["truncate", "duplicate", "delete", "mutate", "flip"]),
    st.integers(0, 3),
    st.floats(0, 1, exclude_max=True),
    _VALUES,
)


def _corrupt(path, kind, where, value):
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if kind == "truncate":
        path.write_bytes(data[: int(len(data) * where)])
        return
    if kind == "flip":
        if data:
            at = int(len(data) * where)
            flipped = bytes([data[at] ^ (1 << (at % 8))])
            path.write_bytes(data[:at] + flipped + data[at + 1:])
        return
    if not lines:
        return
    at = int(len(lines) * where)
    if kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "delete":
        del lines[at]
    else:  # mutate: overwrite one top-level field, keeping the old CRC
        try:
            doc = json.loads(lines[at])
        except ValueError:  # torn, flipped or not UTF-8
            return
        if not isinstance(doc, dict):
            return
        keys = sorted(doc)
        doc[keys[int(len(keys) * where)]] = value
        lines[at] = (json.dumps(doc) + "\n").encode()
    path.write_bytes(b"".join(lines))


class TestCheckpointFuzz:
    @given(st.lists(_CORRUPTIONS, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_resume_restores_exactly_or_refuses(
        self, estimator, written, corruptions
    ):
        """Truncated, duplicated, deleted, mutated or bit-flipped shard
        lines: resume yields the serial sweep exactly or raises
        CheckpointError — never a different point set or estimate."""
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ckpt"
            shutil.copytree(written[0], ckpt)
            for kind, shard, where, value in corruptions:
                _corrupt(ckpt / f"shard-{shard:04d}.jsonl", kind, where, value)
            try:
                resumed = resume(estimator, ckpt)
            except CheckpointError:
                return
            assert full_fingerprint(resumed) == written[1]


#: A 200-point, 2-shard tpchq6 checkpoint (seed 1) written by the code
#: before points were indices: its lines carry only parameter dicts.
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "tpchq6-200x2"


class TestOlderCheckpoint:
    """The fixture was written by ``repro explore``, so it is compared with
    sweeps on the shipped models (:func:`default_estimator`)."""

    @pytest.fixture()
    def estimator(self):
        from repro.estimation import default_estimator

        return default_estimator()

    def test_resumes_and_merges_to_the_same_front(self, estimator, tmp_path):
        from repro.dse import merge_checkpoints

        bench = get_benchmark("tpchq6")
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FIXTURE, ckpt)
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        resumed = explore(bench, estimator, max_points=200, seed=1, shards=2,
                          checkpoint_dir=ckpt, resume=True)
        merged = merge_checkpoints(ckpt, estimator)
        fresh = explore(bench, estimator, max_points=200, seed=1)
        assert resumed.restored == merged.restored == 200
        assert full_fingerprint(resumed) == full_fingerprint(fresh)
        assert full_fingerprint(merged) == full_fingerprint(fresh)
        front = [(p.params, estimate_to_doc(p.estimate)) for p in fresh.pareto]
        for result in (resumed, merged):
            assert [(p.params, estimate_to_doc(p.estimate))
                    for p in result.pareto] == front
        # Nothing was re-estimated, so nothing was rewritten.
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before

    def test_a_rewrite_is_byte_identical(self, estimator, tmp_path):
        explore(get_benchmark("tpchq6"), estimator, max_points=200, seed=1,
                shards=2, checkpoint_dir=tmp_path)
        for path in FIXTURE.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()
