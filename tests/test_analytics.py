"""Analytics-tier tests: engine vs frozen oracle, snapshot scans, runner.

The acceptance property mirrors the matcher suite one tier up: across
randomized databases the signature-accelerated motif/anomaly engines
must return the *identical* result set as the frozen brute-force
references in :mod:`repro.testing.oracle` — same motifs, same match
sets, same order.  Databases go through ``make_test_database`` so the
sweep runs against both ``REPRO_TEST_BACKEND`` backends; the snapshot
tests pin the ``LoggedBackend`` explicitly (mmap'd columns are the
point), covering the exported-posting-buffer fast path, the lagging
buffer fallback, the merged sharded-root scan, and the batch runner
scanning concurrently with a ticking :class:`SessionManager`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    AnalyticsRunner,
    SnapshotHarvest,
    discover_motifs,
    fleet_anomalies,
    fleet_motifs,
    score_anomalies,
)
from repro.core.model import BreathingState, PLRSeries, Vertex
from repro.database.backend import LoggedBackend, open_snapshot_scan, shard_directory
from repro.database.index import StateSignatureIndex
from repro.database.store import MotionDatabase
from repro.obs import Telemetry
from repro.testing.oracle import reference_anomalies, reference_motifs

from conftest import make_series, make_test_database


def _series_from(times, positions, states):
    series = PLRSeries()
    for t, x, s in zip(times, positions, states):
        series.append(Vertex(float(t), (float(x),), BreathingState(s)))
    return series


# -- strategies ----------------------------------------------------------------

# Two-state alphabet: signature collisions (hence non-trivial posting
# groups) are common, which is what stresses the engine.
_states = st.integers(0, 1)
_gap = st.floats(0.2, 3.0, allow_nan=False, allow_infinity=False)
_position = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def _stream(draw, min_vertices=4, max_vertices=14):
    n = draw(st.integers(min_vertices, max_vertices))
    gaps = draw(st.lists(_gap, min_size=n, max_size=n))
    times = np.cumsum(gaps)
    positions = draw(st.lists(_position, min_size=n, max_size=n))
    states = draw(st.lists(_states, min_size=n, max_size=n))
    return times, positions, states


@st.composite
def _scenario(draw):
    streams = draw(st.lists(_stream(), min_size=1, max_size=3))
    length = draw(st.integers(2, 5))
    # Finite thresholds only: the engine never computes cross-signature
    # distances (inf by construction), so an infinite threshold would
    # compare inf <= inf in the oracle but not in the engine.
    threshold = draw(st.floats(0.5, 50.0, allow_nan=False))
    zone = draw(st.integers(1, 3))
    min_count = draw(st.integers(1, 3))
    max_motifs = draw(st.one_of(st.none(), st.integers(1, 4)))
    return streams, length, threshold, zone, min_count, max_motifs


def _build_db(streams):
    db = make_test_database()
    for i, (times, positions, states) in enumerate(streams):
        patient = f"P{i % 2}"
        if patient not in db.patient_ids:
            db.add_patient(patient)
        db.add_stream(
            patient, f"S{i}", series=_series_from(times, positions, states)
        )
    return db


# -- engine vs frozen oracle ---------------------------------------------------


class TestEngineVsOracle:
    @settings(max_examples=100, deadline=None)
    @given(scenario=_scenario())
    def test_motifs_identical_to_reference(self, scenario):
        """Index-accelerated discovery == frozen brute force, exactly."""
        streams, length, threshold, zone, min_count, max_motifs = scenario
        db = _build_db(streams)
        engine = fleet_motifs(
            db,
            length,
            threshold=threshold,
            exclusion_zone=zone,
            min_count=min_count,
            max_motifs=max_motifs,
        )
        oracle = reference_motifs(
            db,
            length,
            threshold=threshold,
            exclusion_zone=zone,
            min_count=min_count,
            max_motifs=max_motifs,
        )
        assert engine == oracle

    @settings(max_examples=100, deadline=None)
    @given(scenario=_scenario())
    def test_anomalies_identical_to_reference(self, scenario):
        streams, length, threshold, zone, _, _ = scenario
        db = _build_db(streams)
        report = fleet_anomalies(
            db, length, threshold=threshold, exclusion_zone=zone
        )
        oracle = reference_anomalies(
            db, length, threshold=threshold, exclusion_zone=zone
        )
        assert list(report.anomalies) == oracle
        # The per-stream tallies partition the window universe.
        assert report.n_windows == sum(
            max(0, len(r.series) - length + 1) for r in db.iter_streams()
        )
        assert report.n_anomalies == len(oracle)

    def test_rejects_degenerate_length(self):
        db = _build_db([(np.arange(1.0, 6.0), [0.0] * 5, [0, 1, 0, 1, 0])])
        with pytest.raises(ValueError):
            fleet_motifs(db, 1)


# -- anomaly edge cases --------------------------------------------------------


class TestAnomalyEdgeCases:
    def test_stream_shorter_than_window_has_zero_windows(self):
        db = make_test_database()
        db.add_patient("P0")
        db.add_stream(
            "P0", "SHORT",
            series=_series_from([1.0, 2.0, 3.0], [0.0, 5.0, 0.0], [0, 1, 0]),
        )
        db.add_stream("P0", "LONG", series=make_series(cycles=4))
        report = fleet_anomalies(db, 5)
        short = next(s for s in report.streams if "SHORT" in s.stream_id)
        assert short.n_windows == 0
        assert short.n_anomalies == 0
        assert short.score == 0.0
        assert all(sid.endswith("LONG") for sid, _ in report.anomalies)
        assert list(report.anomalies) == reference_anomalies(db, 5)

    def test_all_constant_streams_score_zero(self):
        # Identical regular series: every window matches its twin in the
        # other stream (distance 0), so nothing is anomalous.
        db = make_test_database()
        db.add_patient("P0")
        db.add_stream("P0", "A", series=make_series(cycles=5))
        db.add_stream("P0", "B", series=make_series(cycles=5))
        report = fleet_anomalies(db, 4)
        assert report.n_windows > 0
        assert report.n_anomalies == 0
        assert report.fleet_score == 0.0
        assert all(s.score == 0.0 for s in report.streams)
        assert reference_anomalies(db, 4) == []

    def test_tombstoned_streams_are_skipped(self):
        db = make_test_database()
        db.add_patient("P0")
        db.add_stream("P0", "KEEP0", series=make_series(cycles=5))
        dead = db.add_stream("P0", "DEAD", series=make_series(cycles=5))
        db.add_stream("P0", "KEEP1", series=make_series(cycles=5, start=1.0))
        db.remove_stream(dead.stream_id)
        motifs = fleet_motifs(db, 4)
        report = fleet_anomalies(db, 4)
        seen = {s.stream_id for s in report.streams}
        assert dead.stream_id not in seen
        assert len(seen) == 2
        for motif in motifs:
            assert motif.stream_id != dead.stream_id
            assert all(sid != dead.stream_id for sid, _ in motif.matches)
        assert motifs == reference_motifs(db, 4)
        assert list(report.anomalies) == reference_anomalies(db, 4)


# -- snapshot scans ------------------------------------------------------------


LENGTH = 4


def _logged_db(directory, n_streams=3, cycles=6):
    db = MotionDatabase(backend=LoggedBackend(directory))
    db.add_patient("PA")
    for k in range(n_streams):
        db.add_stream(
            "PA", f"S{k}", series=make_series(cycles=cycles, start=0.1 * k)
        )
    return db


class TestSnapshotHarvest:
    def test_buffer_fast_path_equals_oracle(self, tmp_path):
        db = _logged_db(tmp_path)
        index = StateSignatureIndex(db)
        # Touching the length instantiates + catches up its posting
        # buffers, so the snapshot exports them complete.
        list(index.posting_groups(LENGTH))
        db.compact(index=index)
        harvest = SnapshotHarvest(open_snapshot_scan(tmp_path))
        assert harvest._buffers_cover(harvest.scans[0], LENGTH) is not None
        assert discover_motifs(harvest, LENGTH) == reference_motifs(db, LENGTH)
        report = score_anomalies(harvest, LENGTH)
        assert list(report.anomalies) == reference_anomalies(db, LENGTH)
        db.close()

    def test_lagging_buffers_fall_back_to_columns(self, tmp_path):
        db = _logged_db(tmp_path)
        index = StateSignatureIndex(db)
        list(index.posting_groups(LENGTH))
        db.compact(index=index)
        # New vertices after the catch-up: the next snapshot's buffers
        # lag its vertex columns, so the harvest must recompute.
        record = db.stream("PA/S0")
        tail = make_series(cycles=2, start=record.series.times[-1] + 1.0)
        fresh = list(tail)
        for vertex in fresh:
            record.series.append(vertex)
        db.commit_vertices("PA/S0", fresh)
        db.compact(index=index)
        harvest = SnapshotHarvest(open_snapshot_scan(tmp_path))
        assert harvest._buffers_cover(harvest.scans[0], LENGTH) is None
        assert discover_motifs(harvest, LENGTH) == reference_motifs(db, LENGTH)
        report = score_anomalies(harvest, LENGTH)
        assert list(report.anomalies) == reference_anomalies(db, LENGTH)
        db.close()

    def test_sharded_root_merges_the_whole_fleet(self, tmp_path):
        # Two per-shard directories; the harvest must mine motifs across
        # shards, not one shard at a time.
        mirror = MotionDatabase()
        for shard in range(2):
            directory = shard_directory(tmp_path, shard)
            db = MotionDatabase(backend=LoggedBackend(directory))
            pid = f"P{shard}"
            db.add_patient(pid)
            mirror.add_patient(pid)
            for k in range(2):
                series = make_series(cycles=5, start=0.05 * (2 * shard + k))
                db.add_stream(pid, f"S{k}", series=series)
                mirror.add_stream(pid, f"S{k}", series=series)
            db.compact()
            db.close()
        runner = AnalyticsRunner(tmp_path, LENGTH)
        report = runner.run_once()
        assert len(report.snapshot_ids) == 2
        assert list(report.motifs) == reference_motifs(mirror, LENGTH)
        assert list(report.anomalies.anomalies) == reference_anomalies(
            mirror, LENGTH
        )
        # Cross-shard evidence: some motif's match set spans patients.
        spans = {
            key[0].split("/")[0]
            for motif in report.motifs
            for key in (motif.key, *motif.matches)
        }
        assert len(spans) == 2

    def test_duplicate_stream_ids_across_scans_rejected(self, tmp_path):
        for name in ("a", "b"):
            db = _logged_db(tmp_path / name, n_streams=1)
            db.compact()
            db.close()
        with pytest.raises(ValueError, match="more than one scan"):
            SnapshotHarvest(
                [open_snapshot_scan(tmp_path / "a"),
                 open_snapshot_scan(tmp_path / "b")]
            )


# -- windows past the int64 key width ------------------------------------------


#: 33 segments: keys past int64, which snapshots never export.
LONG = 34


def _growing_series(cycles, step=4.0):
    """Regular cycles whose peak grows by ``step`` per cycle: no two of
    its long windows are within the default threshold of anything."""
    series = PLRSeries()
    for c in range(cycles):
        t = 3.0 * c
        series.append(Vertex(t, (0.0,), BreathingState.IN))
        series.append(Vertex(t + 1.0, (10.0 + step * c,), BreathingState.EX))
        series.append(Vertex(t + 2.0, (0.0,), BreathingState.EOE))
    series.append(Vertex(3.0 * cycles, (0.0,), BreathingState.IN))
    return series


def _long_fleet_series(patient, k):
    """Three regular streams, identical but for their start times
    (motifs across patients), and one growing stream (anomalies)."""
    if (patient, k) == (1, 1):
        return _growing_series(14)
    return make_series(cycles=14, start=0.05 * (2 * patient + k))


class TestLongWindows:
    def test_index_harvest_equals_oracle(self):
        db = make_test_database()
        for patient in range(2):
            db.add_patient(f"P{patient}")
            for k in range(2):
                db.add_stream(
                    f"P{patient}", f"S{k}", series=_long_fleet_series(patient, k)
                )
        motifs = fleet_motifs(db, LONG)
        assert motifs and motifs == reference_motifs(db, LONG)
        anomalies = list(fleet_anomalies(db, LONG).anomalies)
        assert anomalies and anomalies == reference_anomalies(db, LONG)

    def test_sharded_snapshot_harvest_equals_oracle(self, tmp_path):
        """Two shards, each compacted with the long length indexed: the
        length is not exported, so both scans recompute it from the
        vertex columns, and the merged groups span the shards."""
        mirror = MotionDatabase()
        for shard in range(2):
            db = MotionDatabase(
                backend=LoggedBackend(shard_directory(tmp_path, shard))
            )
            pid = f"P{shard}"
            db.add_patient(pid)
            mirror.add_patient(pid)
            for k in range(2):
                series = _long_fleet_series(shard, k)
                db.add_stream(pid, f"S{k}", series=series)
                mirror.add_stream(pid, f"S{k}", series=series)
            index = StateSignatureIndex(db)
            list(index.posting_groups(LONG))
            db.compact(index=index)
            db.close()
        harvest = SnapshotHarvest(
            [open_snapshot_scan(shard_directory(tmp_path, s)) for s in range(2)]
        )
        assert all(harvest._buffers_cover(s, LONG) is None for s in harvest.scans)
        motifs = discover_motifs(harvest, LONG)
        assert motifs == reference_motifs(mirror, LONG)
        assert any(
            {sid.split("/")[0] for sid, _ in (m.key, *m.matches)} == {"P0", "P1"}
            for m in motifs
        )
        report = score_anomalies(harvest, LONG)
        assert report.anomalies
        assert list(report.anomalies) == reference_anomalies(mirror, LONG)


# -- the batch runner ----------------------------------------------------------


class TestAnalyticsRunner:
    def test_rejects_unrecognised_directory(self, tmp_path):
        runner = AnalyticsRunner(tmp_path, LENGTH)
        with pytest.raises(ValueError, match="neither a logged database"):
            runner.run_once()

    def test_run_once_publishes_report_and_telemetry(self, tmp_path):
        db = _logged_db(tmp_path)
        db.compact()
        db.close()
        telemetry = Telemetry()
        runner = AnalyticsRunner(tmp_path, LENGTH, telemetry=telemetry)
        assert runner.latest is None
        report = runner.run_once()
        assert runner.latest is report
        assert report.n_streams == 3
        assert report.n_windows > 0
        merged = telemetry.snapshot().merged
        assert merged.counter("analytics.runs") == 1
        assert merged.counter("analytics.windows_scanned") == report.n_windows
        assert merged.counter("analytics.matched_windows") > 0

    def test_scheduled_runs_skip_until_first_snapshot(self, tmp_path):
        # A live directory that has never compacted: scheduled runs are
        # counted as skipped (not errors) until the writer commits.
        db = MotionDatabase(backend=LoggedBackend(tmp_path))
        db.add_patient("PA")
        db.add_stream("PA", "S0", series=make_series(cycles=4))
        telemetry = Telemetry()
        runner = AnalyticsRunner(
            tmp_path, LENGTH, interval=0.005, telemetry=telemetry
        )
        runner.start()
        with pytest.raises(RuntimeError):
            runner.start()
        try:
            deadline = 200
            while (
                telemetry.snapshot().merged.counter("analytics.skipped_runs")
                < 1 and deadline > 0
            ):
                import time

                time.sleep(0.005)
                deadline -= 1
        finally:
            runner.stop()
        assert (
            telemetry.snapshot().merged.counter("analytics.skipped_runs") >= 1
        )
        assert runner.latest is None
        assert runner.last_error is None
        db.compact()
        assert runner.run_once().n_streams == 1
        db.close()

    def test_scan_runs_concurrently_with_live_ingest(self, tmp_path):
        """The read-concurrency stress: batch scans against a ticking
        SessionManager writing (and compacting) the same directory."""
        from repro.service.manager import SessionManager
        from repro.signals.patients import generate_population
        from repro.signals.respiratory import RespiratorySimulator, SessionConfig

        db = _logged_db(tmp_path, n_streams=2)
        manager = SessionManager(db)
        manager.compact()

        runner = AnalyticsRunner(tmp_path, LENGTH, interval=0.001)
        runner.start()
        try:
            profile = generate_population(1, seed=7)[0]
            raw = RespiratorySimulator(
                profile, SessionConfig(duration=12.0)
            ).generate_session(0, seed=11)
            session = manager.open_session("PA", "LIVE")
            for i, t in enumerate(raw.times):
                manager.tick(float(t), {session.stream_id: raw.values[i]})
                if i % 60 == 59:
                    manager.compact()
        finally:
            runner.stop()
        assert runner.last_error is None
        assert runner.latest is not None

        # Quiesced: one final compact + synchronous run == the oracle
        # over the live database, live session stream included.
        manager.compact()
        report = runner.run_once()
        assert list(report.motifs) == reference_motifs(db, LENGTH)
        assert list(report.anomalies.anomalies) == reference_anomalies(
            db, LENGTH
        )
        manager.close(keep_streams=True)
        db.close()
