"""Tests for the pluggable storage backends and crash-safe persistence."""

import json
import math
import os

import numpy as np
import pytest

from repro.database.backend import (
    BACKEND_NAMES,
    InMemoryBackend,
    LoggedBackend,
    atomic_write_text,
    create_backend,
)
from repro.core.matching import SubsequenceMatcher
from repro.database.index import StateSignatureIndex
from repro.testing.oracle import (
    check_equivalence,
    reference_matches,
    reference_prediction,
)
from repro.core.model import BreathingState, Vertex
from repro.core.prediction import (
    _PLAN_TAIL_COLUMNS,
    OnlinePredictor,
    PlanStack,
    build_prediction_plan,
)
from repro.database.ingest import StreamIngestor
from repro.database.store import MotionDatabase
from repro.signals.patients import PatientAttributes

from conftest import make_series


class TestCreateBackend:
    def test_registry_names(self):
        assert set(BACKEND_NAMES) == {"in_memory", "logged"}

    def test_in_memory(self):
        assert isinstance(create_backend("in_memory"), InMemoryBackend)

    def test_logged_requires_directory(self):
        with pytest.raises(ValueError):
            create_backend("logged")

    def test_logged(self, tmp_path):
        backend = create_backend("logged", tmp_path / "db")
        assert isinstance(backend, LoggedBackend)
        backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_backend("cloud")


class TestBackendEvents:
    def test_mutations_are_published(self):
        backend = InMemoryBackend()
        seen = []
        for kind in ("patient_added", "stream_added", "stream_removed"):
            backend.events.subscribe(kind, seen.append)
        backend.add_patient("PA")
        backend.add_stream("PA", "S00", series=make_series(2))
        backend.remove_stream("PA/S00")
        assert [e.kind for e in seen] == [
            "patient_added",
            "stream_added",
            "stream_removed",
        ]
        assert seen[1]["stream_id"] == "PA/S00"
        assert seen[2]["patient_id"] == "PA"

    def test_facade_exposes_backend_bus(self):
        db = MotionDatabase()
        seen = []
        db.events.subscribe("stream_added", seen.append)
        db.add_patient("PA")
        db.add_stream("PA", "S00")
        assert len(seen) == 1


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_failed_replace_preserves_original(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("original")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.database.backend.os.replace", broken_replace
        )
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up


class TestAtomicSnapshotSave:
    def test_interrupted_save_preserves_snapshot(self, tmp_path, monkeypatch):
        db = MotionDatabase()
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(3))
        path = tmp_path / "snapshot.json"
        db.save(path)

        db.add_stream("PA", "S01", series=make_series(2))
        monkeypatch.setattr(
            "repro.database.backend.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("power loss")),
        )
        with pytest.raises(OSError):
            db.save(path)
        monkeypatch.undo()
        # The old snapshot is still complete and loadable.
        loaded = MotionDatabase.load(path)
        assert loaded.stream_ids == ("PA/S00",)


def _populate(backend) -> MotionDatabase:
    db = MotionDatabase(backend=backend)
    attrs = PatientAttributes("PA", 61, "M", "lung_upper", "none")
    db.add_patient("PA", attrs)
    db.add_patient("PB")
    db.add_stream("PA", "S00", series=make_series(3))
    db.add_stream("PB", "S00", series=make_series(4), metadata={"k": "v"})
    return db


class TestLoggedBackend:
    def test_layout(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        db.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "manifest.json", "stream-00000.jsonl", "stream-00001.jsonl",
        ]

    def test_reopen_restores_everything(self, tmp_path):
        original = _populate(LoggedBackend(tmp_path))
        original.close()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert reopened.patient_ids == ("PA", "PB")
        assert reopened.stream_ids == ("PA/S00", "PB/S00")
        attrs = reopened.patient("PA").attributes
        assert attrs is not None and attrs.tumor_site == "lung_upper"
        assert reopened.patient("PB").attributes is None
        assert reopened.stream("PB/S00").metadata == {"k": "v"}
        for stream_id in original.stream_ids:
            a = original.stream(stream_id).series
            b = reopened.stream(stream_id).series
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.states, b.states)
        reopened.close()

    def test_live_commits_survive_reopen(self, tmp_path, raw_stream):
        db = MotionDatabase(backend=LoggedBackend(tmp_path))
        db.add_patient(raw_stream.patient_id)
        ingestor = StreamIngestor(db, raw_stream.patient_id, "LIVE")
        ingestor.extend(raw_stream.times, raw_stream.values)
        ingestor.finish()
        series = ingestor.series
        assert len(series) > 5
        db.close()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        restored = reopened.stream(ingestor.stream_id).series
        np.testing.assert_array_equal(restored.times, series.times)
        np.testing.assert_array_equal(restored.positions, series.positions)
        np.testing.assert_array_equal(restored.states, series.states)
        reopened.close()

    def test_amend_survives_reopen(self, tmp_path):
        db = MotionDatabase(backend=LoggedBackend(tmp_path))
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(2))
        series = db.stream("PA/S00").series
        old = series.vertex(-1)
        amended = Vertex(old.time, old.position, BreathingState.IRR)
        series.replace_last(amended)
        db.amend_vertex("PA/S00", amended)
        db.close()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        restored = reopened.stream("PA/S00").series
        assert restored.states[-1] == int(BreathingState.IRR)
        reopened.close()

    def test_remove_stream_deletes_log(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        db.remove_stream("PA/S00")
        db.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {s["stream_id"] for s in manifest["streams"]}
        assert listed == {"PB/S00"}
        assert not (tmp_path / "stream-00000.jsonl").exists()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert reopened.stream_ids == ("PB/S00",)
        reopened.close()

    def test_file_names_never_reused(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        db.remove_stream("PB/S00")
        db.add_stream("PB", "S01", series=make_series(1))
        db.close()
        # The counter survives removals (and reopens), so a new stream
        # never claims a dead stream's file name.
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        files = {s["stream_id"]: s["file"] for s in manifest["streams"]}
        assert files["PB/S01"] == "stream-00002.jsonl"

    def test_torn_tail_is_healed_on_reopen(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        db.close()
        log = tmp_path / "stream-00000.jsonl"
        clean_lines = log.read_text().splitlines()
        # Simulate a crash mid-append: a torn half-record at the tail.
        with log.open("a") as handle:
            handle.write('{"t": 99.0, "p": [1.')

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        series = reopened.stream("PA/S00").series
        assert len(series) == len(clean_lines) - 1  # header + clean prefix
        # The log itself was rewritten without the torn tail.
        assert log.read_text().splitlines() == clean_lines
        reopened.close()

    def test_reopen_rejects_foreign_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            LoggedBackend(tmp_path)

    def test_appends_after_reopen_extend_the_log(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        db.close()
        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        extra = make_series(1, start=100.0)
        reopened.commit_vertices("PA/S00", list(extra))
        reopened.close()
        # Not replayed into PA/S00's in-memory series here, but journalled:
        third = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert len(third.stream("PA/S00").series) == 10 + len(extra)
        third.close()


class TestCompaction:
    def test_compact_writes_snapshot_and_rotates_journals(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        stats = db.compact()
        assert stats["snapshot_id"] == 1
        assert stats["n_streams"] == 2
        assert stats["segments_rotated"] == 2
        assert stats["segments_deleted"] == 0  # nothing covered twice yet
        snap_dir = tmp_path / "snapshots" / "snap-000001"
        manifest = json.loads((snap_dir / "snapshot.json").read_text())
        assert manifest["format"] == "repro.loggeddb.snapshot/v1"
        assert {s["stream_id"] for s in manifest["streams"]} == {
            "PA/S00", "PB/S00",
        }
        for entry in manifest["streams"]:
            for column in ("times", "positions", "states"):
                assert (snap_dir / f"{entry['prefix']}-{column}.npy").exists()
        # Journals rotated: the pre-compaction segments are retained
        # (fallback material) and a fresh tail segment opened per stream.
        root = json.loads((tmp_path / "manifest.json").read_text())
        for stream in root["streams"]:
            assert len(stream["segments"]) == 2
            assert stream["rotations"] == 1
        db.close()

    def test_reopen_after_compact_replays_only_the_tail(self, tmp_path):
        original = _populate(LoggedBackend(tmp_path))
        original.compact()
        original.close()

        backend = LoggedBackend(tmp_path)
        reopened = MotionDatabase(backend=backend)
        stats = backend.reopen_stats
        assert stats["snapshot_id"] == 1
        assert stats["torn_snapshots"] == 0
        assert stats["streams_from_snapshot"] == 2
        # Only the rotated (empty) tail segments are replayed — the
        # covered pre-compaction journals are never opened.
        assert stats["segments_replayed"] == 2
        assert not any(
            name == "stream-00000.jsonl" for name in stats["files_read"]
        )
        for stream_id in original.stream_ids:
            a = original.stream(stream_id).series
            b = reopened.stream(stream_id).series
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.states, b.states)
        reopened.close()

    def test_tail_written_after_compact_survives_reopen(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        n_before = len(db.stream("PA/S00").series)
        db.compact()
        extra = make_series(2, start=100.0)
        db.commit_vertices("PA/S00", list(extra))
        db.close()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert len(reopened.stream("PA/S00").series) == n_before + len(extra)
        reopened.close()

    def test_removed_stream_costs_no_io_on_reopen(self, tmp_path):
        """Streams tombstoned after the snapshot was cut are skipped
        without touching their column files (the no-I/O regression)."""
        db = _populate(LoggedBackend(tmp_path))
        db.compact()
        db.remove_stream("PA/S00")
        db.close()

        snap_dir = tmp_path / "snapshots" / "snap-000001"
        manifest = json.loads((snap_dir / "snapshot.json").read_text())
        dead_prefix = next(
            s["prefix"]
            for s in manifest["streams"]
            if s["stream_id"] == "PA/S00"
        )

        backend = LoggedBackend(tmp_path)
        reopened = MotionDatabase(backend=backend)
        stats = backend.reopen_stats
        assert reopened.stream_ids == ("PB/S00",)
        assert stats["tombstones_skipped"] == 1
        assert not any(
            dead_prefix in name for name in stats["files_read"]
        )
        reopened.close()

    def test_recreated_stream_ignores_dead_incarnation_snapshot(
        self, tmp_path
    ):
        """A stream removed after the snapshot and re-created under the
        same id must not adopt the dead incarnation's columns: segment
        base names are never reused, so reopen tells them apart."""
        db = _populate(LoggedBackend(tmp_path))
        db.compact()
        db.remove_stream("PA/S00")
        db.add_stream("PA", "S00", series=make_series(1, start=50.0))
        n_new = len(db.stream("PA/S00").series)
        db.close()

        backend = LoggedBackend(tmp_path)
        reopened = MotionDatabase(backend=backend)
        assert len(reopened.stream("PA/S00").series) == n_new
        assert reopened.stream("PA/S00").series.times[0] == 50.0
        assert backend.reopen_stats["tombstones_skipped"] == 1
        reopened.close()

    def test_second_compact_prunes_covered_segments(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        n_before = len(db.stream("PA/S00").series)
        db.compact()
        extra = make_series(2, start=100.0)
        # Mirror the ingest path: the live series and journal advance
        # together (compaction snapshots the in-memory state).
        live = db.stream("PA/S00").series
        for vertex in extra:
            live.append(vertex)
        db.commit_vertices("PA/S00", list(extra))
        stats = db.compact()
        assert stats["snapshot_id"] == 2
        # Segments covered by snapshot 1 are no longer fallback material
        # for snapshot 2 and were deleted.
        assert stats["segments_deleted"] == 2
        db.close()
        root = json.loads((tmp_path / "manifest.json").read_text())
        assert root["snapshots"] == [1, 2]
        assert root["history_complete"] is False
        assert not (tmp_path / "stream-00000.jsonl").exists()
        # Generation 1 itself is retained as the torn-manifest fallback.
        assert (tmp_path / "snapshots" / "snap-000001").exists()

        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert (
            len(reopened.stream("PA/S00").series) == n_before + len(extra)
        )
        reopened.close()

    def test_in_memory_backend_has_no_compaction(self):
        db = MotionDatabase()
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(2))
        assert db.compact() is None

    def test_compaction_event_is_published(self, tmp_path):
        db = _populate(LoggedBackend(tmp_path))
        seen = []
        db.events.subscribe("backend_compacted", seen.append)
        db.compact()
        db.close()
        assert len(seen) == 1
        assert seen[0]["snapshot_id"] == 1
        assert seen[0]["n_streams"] == 2


def _compacted_with_index(directory):
    """A compacted two-stream store whose snapshot exports one index
    length; returns a query of that length on ``PA/S00``."""
    db = _populate(LoggedBackend(directory))
    query = db.stream("PA/S00").series.subsequence(0, 4)
    index = StateSignatureIndex(db)
    index.candidates(query.segment_states)
    db.compact(index=index)
    db.close()
    return query


def _index_file(directory, suffix):
    snap_dir = directory / "snapshots" / "snap-000001"
    manifest = json.loads((snap_dir / "snapshot.json").read_text())
    (entry,) = manifest["index"]
    return snap_dir / f"{entry['prefix']}-{suffix}.npy"


def _zero_body(path):
    """Zero every byte after the ``.npy`` header, which stays intact."""
    size = path.stat().st_size
    body = np.load(path).nbytes
    with open(path, "r+b") as handle:
        handle.seek(size - body)
        handle.write(bytes(body))


def _code_out_of_range(path):
    codes = np.load(path, mmap_mode="r+")
    codes[:] = 2  # the intern table holds two streams
    codes.flush()
    del codes


class TestIndexBufferChecks:
    """Damaged ``idx-*`` buffers are rejected on reopen and their length
    rebuilds, instead of serving wrong candidates."""

    @pytest.mark.parametrize(
        "suffix, damage",
        [("offsets", _zero_body), ("codes", _code_out_of_range)],
        ids=["zeroed-offsets", "code-out-of-range"],
    )
    def test_damaged_length_rebuilds(self, tmp_path, suffix, damage):
        query = _compacted_with_index(tmp_path)
        damage(_index_file(tmp_path, suffix))

        backend = LoggedBackend(tmp_path)
        reopened = MotionDatabase(backend=backend)
        matcher = SubsequenceMatcher(reopened)
        engine = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        oracle = reference_matches(
            reopened, query, "PA/S00", threshold=math.inf
        )
        assert len(oracle) > 0
        check_equivalence(engine, oracle)
        assert backend.reopen_stats["index_lengths_rejected"] == 1
        assert backend.reopen_stats["index_lengths_loaded"] == 0
        reopened.close()

    def test_intact_buffers_are_adopted(self, tmp_path):
        _compacted_with_index(tmp_path)
        backend = LoggedBackend(tmp_path)
        reopened = MotionDatabase(backend=backend)
        assert backend.reopen_stats["index_lengths_rejected"] == 0
        assert backend.reopen_stats["index_lengths_loaded"] == 1
        reopened.close()

    def test_snapshot_files_are_synced_before_the_snapshot_commits(
        self, tmp_path, monkeypatch
    ):
        """Every column file and the snapshot directory are fsynced
        before ``snapshot.json`` is written."""
        db = _populate(LoggedBackend(tmp_path))
        index = StateSignatureIndex(db)
        query = db.stream("PA/S00").series.subsequence(0, 4)
        index.candidates(query.segment_states)
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        db.compact(index=index)
        monkeypatch.undo()
        db.close()

        first = {}
        for position, inode in enumerate(synced):
            first.setdefault(inode, position)
        snap_dir = tmp_path / "snapshots" / "snap-000001"
        committed_at = first[(snap_dir / "snapshot.json").stat().st_ino]
        files = sorted(snap_dir.glob("*.npy"))
        assert any(path.name.startswith("idx-") for path in files)
        for path in [*files, snap_dir]:
            inode = path.stat().st_ino
            assert inode in first, f"{path.name} never fsynced"
            assert first[inode] < committed_at, path.name


def _history() -> dict:
    """Two never-closed series: a 90 s history and a short live stream."""
    return {
        "PA/S00": make_series(30),
        "PB/S00": make_series(4, amplitude=9.0, start=0.4),
    }


def _store(history, backend=None) -> MotionDatabase:
    db = MotionDatabase(backend=backend)
    for stream_id, series in history.items():
        patient_id, session_id = stream_id.split("/")
        db.add_patient(patient_id)
        db.add_stream(patient_id, session_id, series=series)
    return db


def _reopened(tmp_path, history) -> MotionDatabase:
    """``history`` compacted, closed and reopened from its snapshot."""
    db = _store(history, LoggedBackend(tmp_path))
    db.compact()
    db.close()
    return MotionDatabase(backend=LoggedBackend(tmp_path))


def _probes(series) -> np.ndarray:
    """Times before, on, between and after every vertex."""
    times = series.times
    return np.concatenate(
        [times[:1] - 1.0, times, (times[:-1] + times[1:]) / 2, times[-1:] + 1.0]
    )


class TestReopenedLazySeries:
    """Regression: a series adopted from snapshot columns
    (``PLRSeries.from_dense``) counted no segments until something
    materialised its vertices, so ``segment``, ``segment_index_at`` and
    ``position_at`` raised on every series of a reopened compacted store.
    """

    ACCESSORS = {
        "n_segments": lambda s: s.n_segments,
        "segment": lambda s: [
            s.segment(i) for i in range(-s.n_segments, s.n_segments)
        ],
        "segment_index_at": lambda s: [
            s.segment_index_at(float(t)) for t in _probes(s)
        ],
        "position_at": lambda s: np.stack(
            [s.position_at(float(t)) for t in _probes(s)]
        ),
    }

    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    def test_reopened_series_answers_like_never_closed(
        self, tmp_path, accessor
    ):
        history = _history()
        reopened = _reopened(tmp_path, history)
        read = self.ACCESSORS[accessor]
        for stream_id, original in history.items():
            series = reopened.stream(stream_id).series
            assert series._pending is not None, "not lazily adopted"
            np.testing.assert_equal(read(series), read(original))
        reopened.close()

    def test_fleet_serve_past_packed_tail_reads_reopened_series(
        self, tmp_path
    ):
        history = _history()
        never_closed = _store(history)
        reopened = _reopened(tmp_path, _history())
        query = history["PB/S00"].suffix(4)
        matcher = SubsequenceMatcher(never_closed)
        matches = matcher.find_matches(query, "PB/S00", threshold=math.inf)
        # The horizon runs past every match's packed tail window, so each
        # usable match is answered by its series' position_at.
        horizon = 15.0
        gaps = np.diff(history["PA/S00"].times)
        assert horizon > _PLAN_TAIL_COLUMNS * gaps.max()
        expected = reference_prediction(
            never_closed, query, matches, horizon, params=matcher.params
        )
        assert expected is not None
        n_expected = len(
            OnlinePredictor(never_closed, matcher).with_known_future(
                matches, horizon
            )
        )
        plan = build_prediction_plan(reopened, query, matches, matcher.params)
        assert reopened.stream("PA/S00").series._pending is not None
        served, counts, positions = PlanStack([plan], [1]).serve(
            np.array([horizon])
        )
        assert served[0] and counts[0] == n_expected
        np.testing.assert_array_equal(positions[0], expected)
        reopened.close()


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
class TestFacadeOverBothBackends:
    def _db(self, backend_name, tmp_path):
        directory = tmp_path / "db" if backend_name == "logged" else None
        return MotionDatabase(backend=create_backend(backend_name, directory))

    def test_crud_and_epoch(self, backend_name, tmp_path):
        db = self._db(backend_name, tmp_path)
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(2))
        db.add_stream("PA", "S01", series=make_series(3))
        assert db.n_streams == 2 and "PA/S00" in db
        assert db.removal_epoch == 0
        db.remove_stream("PA/S00")
        assert db.removal_epoch == 1
        assert db.stream_ids == ("PA/S01",)
        db.close()

    def test_duplicate_rejected(self, backend_name, tmp_path):
        db = self._db(backend_name, tmp_path)
        db.add_patient("PA")
        db.add_stream("PA", "S00")
        with pytest.raises(KeyError):
            db.add_patient("PA")
        with pytest.raises(KeyError):
            db.add_stream("PA", "S00")
        db.close()

    def test_snapshot_roundtrip(self, backend_name, tmp_path):
        db = self._db(backend_name, tmp_path)
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(3))
        path = tmp_path / "snapshot.json"
        db.save(path)
        loaded = MotionDatabase.load(path)
        np.testing.assert_array_equal(
            loaded.stream("PA/S00").series.times,
            db.stream("PA/S00").series.times,
        )
        db.close()
