"""The hierarchical motion-stream database (Section 3.2).

:class:`MotionDatabase` answers the provenance question Definition 2
needs (is a candidate from the query's own session, the same patient, or
another patient?), iterates streams for the offline analyses, and
persists to a portable JSON snapshot.

Record keeping itself lives behind a pluggable
:class:`~repro.database.backend.StorageBackend`: the facade delegates
every read and mutation, so the matcher, index and service layer are
storage-agnostic and the same database API runs volatile
(:class:`~repro.database.backend.InMemoryBackend`, the default) or
durable (:class:`~repro.database.backend.LoggedBackend`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from ..core.model import PLRSeries, Vertex
from ..core.similarity import SourceRelation
from ..events import EventBus
from ..signals.patients import PatientAttributes
from .backend import InMemoryBackend, StorageBackend, atomic_write_text
from .records import PatientRecord, StreamRecord

__all__ = ["MotionDatabase"]


class MotionDatabase:
    """Hierarchical store facade: patients -> session streams -> PLR.

    Parameters
    ----------
    injector:
        Optional fault injector (chaos tests only), forwarded to the
        backend; see
        :meth:`~repro.database.backend.InMemoryBackend.remove_stream`
        for the atomicity contract.
    backend:
        The storage implementation.  Defaults to a fresh
        :class:`~repro.database.backend.InMemoryBackend`.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` (also settable later via
        the :attr:`telemetry` property — the session manager binds its
        root this way).  When set, commit/amend traffic is counted at
        the facade (attempted writes) and mirrored to the backend,
        where the durable paths count journal records and manifest
        fsyncs; when ``None`` the write path pays one ``is None`` check.
    """

    def __init__(
        self,
        injector=None,
        backend: StorageBackend | None = None,
        telemetry=None,
    ) -> None:
        if backend is None:
            backend = InMemoryBackend(injector)
        elif injector is not None:
            backend.injector = injector
        self._backend = backend
        self._telemetry = None
        if telemetry is not None:
            self.telemetry = telemetry

    @classmethod
    def open_shard(
        cls,
        root: str | Path,
        shard: int,
        injector=None,
        telemetry=None,
    ) -> "MotionDatabase":
        """Open worker ``shard``'s durable store under a sharded root.

        Convenience over :meth:`LoggedBackend.open_shard
        <repro.database.backend.LoggedBackend.open_shard>`: the shard's
        directory is a self-contained logged store, so journal replay
        and snapshot recovery run exactly as for a solo database.
        """
        from .backend import LoggedBackend

        return cls(
            backend=LoggedBackend.open_shard(
                root, shard, injector, telemetry=telemetry
            )
        )

    @property
    def backend(self) -> StorageBackend:
        """The storage implementation behind this facade."""
        return self._backend

    @property
    def telemetry(self):
        """The telemetry handle counting this database's write traffic."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        self._telemetry = telemetry
        self._backend.telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._c_commit_batches = registry.counter("backend.commit_batches")
            self._c_committed = registry.counter("backend.committed_vertices")
            self._c_amended = registry.counter("backend.amended_vertices")

    @property
    def events(self) -> EventBus:
        """The backend's mutation-event bus (see :mod:`repro.events`)."""
        return self._backend.events

    @property
    def injector(self):
        """The backend's fault injector (chaos tests only)."""
        return self._backend.injector

    @injector.setter
    def injector(self, injector) -> None:
        self._backend.injector = injector

    # -- writes ---------------------------------------------------------------

    def add_patient(
        self,
        patient_id: str,
        attributes: PatientAttributes | None = None,
    ) -> PatientRecord:
        """Create a patient record; id must be new."""
        return self._backend.add_patient(patient_id, attributes)

    def add_stream(
        self,
        patient_id: str,
        session_id: str,
        series: PLRSeries | None = None,
        stream_id: str | None = None,
        metadata: dict | None = None,
    ) -> StreamRecord:
        """Attach a stream to an existing patient.

        Parameters
        ----------
        patient_id:
            Owning patient; must already exist.
        session_id:
            Session label; the default ``stream_id`` is
            ``"{patient_id}/{session_id}"``.
        series:
            The PLR; pass the online segmenter's live series for streaming
            sessions, or omit for an empty one.
        stream_id:
            Explicit identifier override.
        metadata:
            Free-form annotations stored on the record.
        """
        return self._backend.add_stream(
            patient_id, session_id, series, stream_id, metadata
        )

    def remove_stream(self, stream_id: str) -> None:
        """Delete a stream record (atomic with respect to crashes)."""
        self._backend.remove_stream(stream_id)

    def commit_vertices(
        self, stream_id: str, vertices: Iterable[Vertex]
    ) -> None:
        """Journal vertices committed to a live stream (durability hook).

        No-op on volatile backends — the live series object is already
        shared with the segmenter; durable backends append to the
        stream's vertex log.

        Telemetry counts *attempted* writes here, before delegation;
        the logged backend counts *durable* journal records after each
        successful append, so the two diverge exactly when a write is
        lost mid-flight (the crash-recovery tests lean on this).
        """
        if self._telemetry is not None:
            vertices = tuple(vertices)
            self._c_commit_batches.inc()
            self._c_committed.inc(len(vertices))
        self._backend.commit_vertices(stream_id, vertices)

    def amend_vertex(self, stream_id: str, vertex: Vertex) -> None:
        """Journal a re-label of a live stream's most recent vertex."""
        if self._telemetry is not None:
            self._c_amended.inc()
        self._backend.amend_vertex(stream_id, vertex)

    def close(self) -> None:
        """Release backend resources (open journal files)."""
        self._backend.close()

    def compact(self, index=None) -> dict | None:
        """Compact the backend into a columnar snapshot, if it supports it.

        Delegates to
        :meth:`~repro.database.backend.LoggedBackend.compact`: the
        current state of every stream (and, when ``index`` is passed, the
        signature index's posting buffers) is written to a snapshot,
        journals are rotated, and the next reopen replays only the tail.
        Returns the backend's compaction stats, or ``None`` for backends
        without compaction (the in-memory default).
        """
        compact = getattr(self._backend, "compact", None)
        if compact is None:
            return None
        return compact(index=index)

    # -- reads ----------------------------------------------------------------

    def patient(self, patient_id: str) -> PatientRecord:
        """The patient record for ``patient_id``."""
        return self._backend.patient(patient_id)

    def stream(self, stream_id: str) -> StreamRecord:
        """The stream record for ``stream_id``."""
        return self._backend.stream(stream_id)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._backend

    @property
    def removal_epoch(self) -> int:
        """Counter bumped on every stream removal.

        Derived structures (the signature index) snapshot this to detect
        removals in O(1) instead of re-validating stream membership on
        every lookup; appends and additions never bump it.
        """
        return self._backend.removal_epoch

    @property
    def patient_ids(self) -> tuple[str, ...]:
        """All patient identifiers, in insertion order."""
        return self._backend.patient_ids

    @property
    def stream_ids(self) -> tuple[str, ...]:
        """All stream identifiers, in insertion order."""
        return self._backend.stream_ids

    @property
    def n_patients(self) -> int:
        """Number of patient records."""
        return len(self._backend.patient_ids)

    @property
    def n_streams(self) -> int:
        """Number of stream records."""
        return len(self._backend.stream_ids)

    @property
    def n_vertices(self) -> int:
        """Total committed PLR vertices across all streams."""
        return sum(s.n_vertices for s in self._backend.iter_streams())

    def iter_patients(self) -> Iterator[PatientRecord]:
        """Iterate patient records in insertion order."""
        return self._backend.iter_patients()

    def iter_streams(self) -> Iterator[StreamRecord]:
        """Iterate stream records in insertion order."""
        return self._backend.iter_streams()

    def relation(
        self, query_stream_id: str, candidate_stream_id: str
    ) -> SourceRelation:
        """Provenance of a candidate stream relative to the query stream.

        Selects the Definition 2 source weight ``w_s``: same session,
        another session of the same patient, or another patient.
        """
        query = self.stream(query_stream_id)
        candidate = self.stream(candidate_stream_id)
        if query.stream_id == candidate.stream_id or (
            query.patient_id == candidate.patient_id
            and query.session_id == candidate.session_id
        ):
            return SourceRelation.SAME_SESSION
        if query.patient_id == candidate.patient_id:
            return SourceRelation.SAME_PATIENT
        return SourceRelation.OTHER_PATIENT

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a JSON snapshot of the whole database.

        The snapshot lands via a temp file in the target directory plus
        :func:`os.replace`, so a crash mid-save can never leave a torn
        JSON file where a previous good snapshot lived.
        """
        payload = {
            "format": "repro.motiondb/v1",
            "patients": [
                self._patient_payload(patient)
                for patient in self.iter_patients()
            ],
        }
        atomic_write_text(path, json.dumps(payload))

    @classmethod
    def load(
        cls, path: str | Path, backend: StorageBackend | None = None
    ) -> "MotionDatabase":
        """Rebuild a database from a :meth:`save` snapshot.

        Each stream's series is decoded by :meth:`PLRSeries.from_payload
        <repro.core.model.PLRSeries.from_payload>`, which raises
        :class:`ValueError` for non-finite or non-increasing times,
        non-finite positions or a state outside the alphabet.

        Parameters
        ----------
        path:
            The snapshot file.
        backend:
            Optional storage backend to load the snapshot *into* (e.g. a
            fresh :class:`~repro.database.backend.LoggedBackend`
            directory); defaults to in-memory.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "repro.motiondb/v1":
            raise ValueError("not a repro motion database snapshot")
        db = cls(backend=backend)
        for patient_payload in payload["patients"]:
            attrs_payload = patient_payload.get("attributes")
            attributes = (
                PatientAttributes(**attrs_payload) if attrs_payload else None
            )
            db.add_patient(patient_payload["patient_id"], attributes)
            for stream_payload in patient_payload["streams"]:
                db.add_stream(
                    patient_id=patient_payload["patient_id"],
                    session_id=stream_payload["session_id"],
                    series=PLRSeries.from_payload(stream_payload),
                    stream_id=stream_payload["stream_id"],
                    metadata=stream_payload.get("metadata", {}),
                )
        return db

    @staticmethod
    def _patient_payload(patient: PatientRecord) -> dict:
        attributes = None
        if patient.attributes is not None:
            attributes = {
                "patient_id": patient.attributes.patient_id,
                "age": patient.attributes.age,
                "sex": patient.attributes.sex,
                "tumor_site": patient.attributes.tumor_site,
                "pathology": patient.attributes.pathology,
                "tumor_type": patient.attributes.tumor_type,
            }
        return {
            "patient_id": patient.patient_id,
            "attributes": attributes,
            "streams": [
                {
                    "stream_id": stream.stream_id,
                    "session_id": stream.session_id,
                    "metadata": stream.metadata,
                    **stream.series.to_payload(),
                }
                for stream in patient.streams.values()
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MotionDatabase(patients={self.n_patients}, "
            f"streams={self.n_streams}, vertices={self.n_vertices})"
        )
