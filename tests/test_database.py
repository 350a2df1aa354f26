"""Tests for the hierarchical motion database (store, records, persistence)."""

import json

import numpy as np
import pytest

from repro.core.similarity import SourceRelation
from repro.database.store import MotionDatabase
from repro.signals.patients import PatientAttributes

from conftest import make_series, make_test_database


@pytest.fixture
def db():
    database = make_test_database()
    attrs = PatientAttributes("PA", 60, "F", "lung_lower", "none")
    database.add_patient("PA", attrs)
    database.add_patient("PB")
    database.add_stream("PA", "S00", series=make_series(3))
    database.add_stream("PA", "S01", series=make_series(2))
    database.add_stream("PB", "S00", series=make_series(4))
    return database


class TestStore:
    def test_counts(self, db):
        assert db.n_patients == 2
        assert db.n_streams == 3
        assert db.n_vertices == (10 + 7 + 13)

    def test_duplicate_patient_rejected(self, db):
        with pytest.raises(KeyError):
            db.add_patient("PA")

    def test_duplicate_stream_rejected(self, db):
        with pytest.raises(KeyError):
            db.add_stream("PA", "S00")

    def test_stream_requires_patient(self, db):
        with pytest.raises(KeyError):
            db.add_stream("ZZ", "S00")

    def test_lookup_and_contains(self, db):
        record = db.stream("PA/S00")
        assert record.patient_id == "PA"
        assert "PA/S00" in db
        assert "PA/S99" not in db
        with pytest.raises(KeyError):
            db.stream("nope")
        with pytest.raises(KeyError):
            db.patient("nope")

    def test_patient_record_navigation(self, db):
        patient = db.patient("PA")
        assert patient.n_streams == 2
        assert patient.stream_ids == ("PA/S00", "PA/S01")

    def test_remove_stream(self, db):
        db.remove_stream("PA/S01")
        assert db.n_streams == 2
        assert "PA/S01" not in db
        assert db.patient("PA").n_streams == 1
        with pytest.raises(KeyError):
            db.remove_stream("PA/S01")

    def test_iteration_order(self, db):
        assert [s.stream_id for s in db.iter_streams()] == [
            "PA/S00",
            "PA/S01",
            "PB/S00",
        ]
        assert [p.patient_id for p in db.iter_patients()] == ["PA", "PB"]


class TestRelation:
    def test_same_session(self, db):
        assert db.relation("PA/S00", "PA/S00") is SourceRelation.SAME_SESSION

    def test_same_patient(self, db):
        assert db.relation("PA/S00", "PA/S01") is SourceRelation.SAME_PATIENT

    def test_other_patient(self, db):
        assert db.relation("PA/S00", "PB/S00") is SourceRelation.OTHER_PATIENT


class TestPersistence:
    def test_roundtrip(self, db, tmp_path):
        path = tmp_path / "snapshot.json"
        db.save(path)
        loaded = MotionDatabase.load(path)
        assert loaded.n_patients == db.n_patients
        assert loaded.stream_ids == db.stream_ids
        original = db.stream("PA/S00").series
        restored = loaded.stream("PA/S00").series
        np.testing.assert_allclose(restored.times, original.times)
        np.testing.assert_allclose(restored.positions, original.positions)
        np.testing.assert_array_equal(restored.states, original.states)
        attrs = loaded.patient("PA").attributes
        assert attrs is not None and attrs.tumor_site == "lung_lower"
        assert loaded.patient("PB").attributes is None

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            MotionDatabase.load(path)

    @pytest.mark.parametrize(
        "field, index, value",
        [("times", 2, float("nan")), ("times", 2, 0.0), ("states", 1, 7)],
        ids=["nan-time", "decreasing-time", "state-outside-alphabet"],
    )
    def test_rejects_a_malformed_series(self, db, tmp_path, field, index, value):
        path = tmp_path / "snapshot.json"
        db.save(path)
        payload = json.loads(path.read_text())
        payload["patients"][0]["streams"][0][field][index] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="series"):
            MotionDatabase.load(path)


class TestRemovalEpoch:
    def test_bumps_on_every_removal(self, db):
        assert db.removal_epoch == 0
        db.remove_stream("PA/S01")
        assert db.removal_epoch == 1
        db.remove_stream("PB/S00")
        assert db.removal_epoch == 2

    def test_failed_removal_does_not_bump(self, db):
        with pytest.raises(KeyError):
            db.remove_stream("PA/S99")
        assert db.removal_epoch == 0

    def test_additions_do_not_bump(self, db):
        db.add_stream("PB", "S01", series=make_series(2))
        assert db.removal_epoch == 0
