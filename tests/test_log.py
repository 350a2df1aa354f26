"""Tests for the append-only vertex log and its crash tolerance."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import BreathingState, Vertex
from repro.database.backend import LoggedBackend
from repro.database.ingest import StreamIngestor
from repro.database.log import VertexLogWriter, read_vertex_log
from repro.database.store import MotionDatabase
from repro.events import EventBus
from repro.service.wiring import attach_vertex_log
from repro.testing.faults import FaultInjector, FaultPlan, SimulatedCrash

from conftest import make_series
from tests_support import clean_cycles


def _journalled_ingestor(db, log) -> StreamIngestor:
    """A live ingestor whose commits reach ``log`` through the session bus."""
    events = EventBus()
    attach_vertex_log(events, log)
    return StreamIngestor(db, "PA", "LIVE", events=events)


class TestVertexLog:
    def test_roundtrip(self, tmp_path):
        series = make_series(cycles=3)
        path = tmp_path / "session.jsonl"
        with VertexLogWriter(path, "PA/S00", "PA") as log:
            log.extend(series)
        recovered = read_vertex_log(path)
        assert recovered.header["stream_id"] == "PA/S00"
        assert recovered.header["patient_id"] == "PA"
        assert not recovered.truncated
        np.testing.assert_allclose(recovered.series.times, series.times)
        np.testing.assert_array_equal(recovered.series.states, series.states)

    def test_torn_final_line_tolerated(self, tmp_path):
        series = make_series(cycles=2)
        path = tmp_path / "torn.jsonl"
        with VertexLogWriter(path) as log:
            log.extend(series)
        with path.open("a") as handle:
            handle.write('{"t": 99.0, "p": [1.0')  # crash mid-write
        recovered = read_vertex_log(path)
        assert len(recovered.series) == len(series)
        assert recovered.truncated

    def test_torn_at_every_byte_offset(self, tmp_path):
        """Byte-level regression: whatever prefix of the log survives a
        crash, replay recovers exactly the complete records before the
        tear and flags the torn tail."""
        series = make_series(cycles=2)
        path = tmp_path / "full.jsonl"
        with VertexLogWriter(path, "PA/S00", "PA") as log:
            log.extend(series)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        header_end = len(lines[0])
        record_ends = list(np.cumsum([len(line) for line in lines]))[1:]
        # A record survives once its closing brace is on disk: at
        # end - 1 only the newline is missing and the JSON still parses.
        clean_cuts = {header_end}
        for end in record_ends:
            clean_cuts.update((end - 1, end))
        torn = tmp_path / "cut.jsonl"
        for cut in range(header_end, len(raw) + 1):
            torn.write_bytes(raw[:cut])
            recovered = read_vertex_log(torn)
            n_complete = sum(1 for end in record_ends if cut >= end - 1)
            assert len(recovered.series) == n_complete, f"cut at byte {cut}"
            assert recovered.truncated == (cut not in clean_cuts)
            np.testing.assert_allclose(
                recovered.series.times, series.times[:n_complete]
            )

    def test_amend_roundtrip(self, tmp_path):
        series = make_series(cycles=2)
        path = tmp_path / "amended.jsonl"
        with VertexLogWriter(path) as log:
            log.extend(series)
            relabel = Vertex(
                series[-1].time, series[-1].position, BreathingState.IRR
            )
            log.amend(relabel)
        assert log.n_written == len(series)
        assert log.n_amended == 1
        recovered = read_vertex_log(path)
        assert len(recovered.series) == len(series)
        assert recovered.series[-1].state is BreathingState.IRR
        np.testing.assert_allclose(recovered.series.times, series.times)

    def test_write_after_close_rejected(self, tmp_path):
        log = VertexLogWriter(tmp_path / "x.jsonl")
        log.close()
        with pytest.raises(ValueError):
            log.append(make_series(1)[0])

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(ValueError):
            read_vertex_log(path)
        (tmp_path / "empty.jsonl").write_text("")
        with pytest.raises(ValueError):
            read_vertex_log(tmp_path / "empty.jsonl")

    def test_unreadable_header_rejected(self, tmp_path):
        path = tmp_path / "torn-header.jsonl"
        path.write_text('{"format": "repro.vertexlog/v1", "stre')
        with pytest.raises(ValueError):
            read_vertex_log(path)

    def test_ingestor_integration_recovers_session(self, tmp_path):
        db = MotionDatabase()
        db.add_patient("PA")
        path = tmp_path / "live.jsonl"
        with VertexLogWriter(path, "PA/LIVE", "PA") as log:
            ingestor = _journalled_ingestor(db, log)
            t, x = clean_cycles(n_cycles=4)
            ingestor.extend(t, x)
            ingestor.finish()
        recovered = read_vertex_log(path)
        np.testing.assert_allclose(
            recovered.series.times, ingestor.series.times
        )
        assert log.n_written == len(ingestor.series)


#: Records whose time is not a finite float: Python's json writes and
#: reads NaN and the infinities, and reads an integer of any size.
_BAD_TIMES = ["NaN", "Infinity", "-Infinity", "1" + "0" * 400]


@pytest.mark.parametrize("bad_time", _BAD_TIMES, ids=["nan", "inf", "-inf", "huge"])
class TestNonFiniteTimeRecord:
    """Such a record ends replay like any other invalid record."""

    def test_fresh_replay_truncates_at_the_record(self, tmp_path, bad_time):
        series = make_series(cycles=2)
        path = tmp_path / "bad.jsonl"
        with VertexLogWriter(path) as log:
            log.extend(series)
        clean_bytes = path.stat().st_size
        with path.open("a") as handle:
            handle.write(f'{{"t": {bad_time}, "p": [1.0], "s": 0}}\n')
            handle.write('{"t": 1000.0, "p": [0.0], "s": 0}\n')
        recovered = read_vertex_log(path)
        assert recovered.truncated
        assert recovered.clean_bytes == clean_bytes
        assert recovered.series.times.tobytes() == series.times.tobytes()

    def test_snapshot_backed_replay_truncates_at_the_record(
        self, tmp_path, bad_time
    ):
        series = make_series(cycles=3)
        db = MotionDatabase(backend=LoggedBackend(tmp_path))
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=series)
        db.compact()
        tail = Vertex(series.end_time + 1.0, (0.5,), BreathingState.EX)
        db.commit_vertices("PA/S00", [tail])
        db.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        path = tmp_path / manifest["streams"][0]["segments"][-1]
        clean_bytes = path.stat().st_size
        with path.open("a") as handle:
            handle.write(f'{{"t": {bad_time}, "p": [1.0], "s": 0}}\n')
            handle.write('{"t": 1000.0, "p": [0.0], "s": 0}\n')
        reopened = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert reopened.backend.reopen_stats["streams_from_snapshot"] == 1
        recovered = reopened.stream("PA/S00").series
        expected = np.append(series.times, tail.time)
        assert recovered.times.tobytes() == expected.tobytes()
        assert path.stat().st_size == clean_bytes  # healed at the record
        reopened.close()


class TestInjectedLogFaults:
    def test_torn_write_persists_prefix(self, tmp_path):
        series = make_series(cycles=2)
        log = VertexLogWriter(
            tmp_path / "torn.jsonl",
            injector=FaultInjector(
                FaultPlan.crash_at("log.append", 2, "torn_write")
            ),
        )
        with pytest.raises(SimulatedCrash):
            log.extend(series)
        recovered = read_vertex_log(tmp_path / "torn.jsonl")
        assert len(recovered.series) == 2  # the two writes before the tear
        assert recovered.truncated

    def test_fsync_loss_persists_nothing_of_the_record(self, tmp_path):
        series = make_series(cycles=2)
        log = VertexLogWriter(
            tmp_path / "lost.jsonl",
            injector=FaultInjector(
                FaultPlan.crash_at("log.append", 2, "fsync_loss")
            ),
        )
        with pytest.raises(SimulatedCrash):
            log.extend(series)
        recovered = read_vertex_log(tmp_path / "lost.jsonl")
        assert len(recovered.series) == 2
        assert not recovered.truncated  # clean prefix, no partial line

    def test_crash_loses_only_the_inflight_record(self, tmp_path):
        series = make_series(cycles=2)
        log = VertexLogWriter(
            tmp_path / "crash.jsonl",
            injector=FaultInjector(FaultPlan.crash_at("log.append", 0)),
        )
        with pytest.raises(SimulatedCrash):
            log.append(series[0])
        recovered = read_vertex_log(tmp_path / "crash.jsonl")
        assert len(recovered.series) == 0
        assert not recovered.truncated

    def test_amend_site_is_independently_addressable(self, tmp_path):
        series = make_series(cycles=2)
        log = VertexLogWriter(
            tmp_path / "amend.jsonl",
            injector=FaultInjector(FaultPlan.crash_at("log.amend", 0)),
        )
        log.extend(series)  # appends pass untouched
        relabel = Vertex(
            series[-1].time, series[-1].position, BreathingState.IRR
        )
        with pytest.raises(SimulatedCrash):
            log.amend(relabel)
        recovered = read_vertex_log(tmp_path / "amend.jsonl")
        assert len(recovered.series) == len(series)
        assert recovered.series[-1].state is series[-1].state  # amend lost


class TestLogReplayProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cycles=st.integers(3, 8),
        period=st.floats(2.5, 6.0),
        amplitude=st.floats(4.0, 15.0),
        noise=st.floats(0.0, 0.6),
    )
    def test_replay_equals_live_segmentation(
        self, seed, n_cycles, period, amplitude, noise
    ):
        """Round-trip property: a session journalled through the vertex
        log (appends *and* amendments) replays byte-identically to the
        live segmenter's series."""
        t, x = clean_cycles(
            n_cycles=n_cycles, period=period, amplitude=amplitude
        )
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise, len(x))
        db = MotionDatabase()
        db.add_patient("PA")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "live.jsonl"
            with VertexLogWriter(path, "PA/LIVE", "PA") as log:
                ingestor = _journalled_ingestor(db, log)
                ingestor.extend(t, x)
                ingestor.finish()
            recovered = read_vertex_log(path)
        live = ingestor.series
        assert not recovered.truncated
        assert recovered.series.times.tobytes() == live.times.tobytes()
        assert (
            recovered.series.positions.tobytes() == live.positions.tobytes()
        )
        assert recovered.series.states.tobytes() == live.states.tobytes()
