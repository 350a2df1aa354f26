"""Pluggable storage backends for the motion-stream database.

:class:`~repro.database.store.MotionDatabase` is a thin facade; the
actual record keeping lives behind the :class:`StorageBackend` protocol
so retrieval, the signature index and the service layer are all
storage-agnostic (the Generic Subsequence Matching Framework argument:
stable interfaces between storage, distance and retrieval).

Two implementations ship:

* :class:`InMemoryBackend` — the original dict-backed hierarchy; fast,
  volatile, the default.
* :class:`LoggedBackend` — durable: every stream is journalled to an
  append-only vertex log (reusing
  :class:`~repro.database.log.VertexLogWriter` /
  :func:`~repro.database.log.read_vertex_log`) plus an atomically
  rewritten JSON manifest for patients/stream identity, so a database
  directory can be **reopened** after a crash and replayed back to the
  exact committed state (torn tails are healed on reopen).

The logged backend additionally supports **compaction**
(:meth:`LoggedBackend.compact`): the current state of every stream is
written to a columnar snapshot (``.npy`` vertex columns plus the
signature index's packed posting buffers), the per-stream journals are
rotated to fresh segments, and the manifest — the single atomic commit
point — is swapped in last.  Reopen then memory-maps the snapshot
columns and replays only the journal *tail* past the snapshot
watermark, so open time is O(tail), not O(history).  A torn snapshot
manifest (the fsync-reordering hazard) falls back to the previous
snapshot in the chain plus a longer tail replay; both generations'
tail segments are retained until the next compaction for exactly this
reason.

Every mutation is published on the backend's
:class:`~repro.events.EventBus` (``patient_added``, ``stream_added``,
``stream_removed``, ``backend_compacted``), which is how the signature
index learns about removals instead of being poked manually.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.model import PLRSeries, Vertex
from ..events import EventBus
from ..signals.patients import PatientAttributes
from .log import VertexLogWriter, heal_torn_log, read_vertex_log
from .records import PatientRecord, StreamRecord

__all__ = [
    "StorageBackend",
    "InMemoryBackend",
    "LoggedBackend",
    "SnapshotScan",
    "open_snapshot_scan",
    "BACKEND_NAMES",
    "create_backend",
    "atomic_write_text",
    "list_shards",
    "shard_directory",
]

_MANIFEST_FORMAT = "repro.loggeddb/v2"
_MANIFEST_FORMAT_V1 = "repro.loggeddb/v1"
_SNAPSHOT_FORMAT = "repro.loggeddb.snapshot/v1"

#: Signature-index buffer fields persisted per window length, as
#: ``(export_buffers key, snapshot file suffix)`` pairs.
_INDEX_COLUMN_FILES = (
    ("group_keys", "keys"),
    ("group_offsets", "offsets"),
    ("stream_codes", "codes"),
    ("starts", "starts"),
    ("amplitudes", "amps"),
    ("durations", "durs"),
)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` crash-safely.

    The payload goes to a temporary file in the *target directory* (same
    filesystem, so the final rename cannot cross devices) and is moved
    into place with :func:`os.replace` — readers see either the old
    complete file or the new complete file, never a torn prefix.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _save_synced(path: Path, array: np.ndarray) -> None:
    """``np.save`` followed by an fsync of the file."""
    with open(path, "wb") as handle:
        np.save(handle, array)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(path: Path) -> None:
    """Make the entries of directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _index_buffers_valid(
    n_vertices: int, entry: dict, arrays: dict[str, np.ndarray]
) -> bool:
    """Structural checks on one length's loaded ``idx-*`` buffers.

    A file damaged behind an intact ``.npy`` header loads fine and would
    silently drop or misplace windows, so: offsets start at 0, strictly
    increase and end at the row count; every column has that many rows
    and the feature matrices ``n_vertices - 1`` columns; keys are unique
    radix-4 keys of this length; codes index the intern table; and each
    row's start lies below its stream's ``next_start`` watermark.
    """
    keys, offsets = arrays["group_keys"], arrays["group_offsets"]
    codes, starts = arrays["stream_codes"], arrays["starts"]
    names, rows = entry["stream_names"], len(starts)
    if any(a.dtype.kind not in "iu" for a in (keys, offsets, codes, starts)):
        return False
    features = (rows, n_vertices - 1)
    if (
        keys.ndim != 1
        or offsets.shape != (len(keys) + 1,)
        or codes.shape != (rows,)
        or starts.shape != (rows,)
        or arrays["amplitudes"].shape != features
        or arrays["durations"].shape != features
        or offsets[0] != 0
        or offsets[-1] != rows
        or np.any(np.diff(offsets) <= 0)
        or len(np.unique(keys)) != len(keys)
    ):
        return False
    if rows == 0:
        return True
    if keys.min() < 0 or keys.max() >= 4 ** (n_vertices - 1):
        return False
    if codes.min() < 0 or codes.max() >= len(names):
        return False
    limit = np.asarray(
        [entry["next_start"].get(name, 0) for name in names], dtype=np.int64
    )
    return not (np.any(starts < 0) or np.any(starts >= limit[codes]))


def _attributes_payload(attributes: PatientAttributes | None) -> dict | None:
    if attributes is None:
        return None
    return {
        "patient_id": attributes.patient_id,
        "age": attributes.age,
        "sex": attributes.sex,
        "tumor_site": attributes.tumor_site,
        "pathology": attributes.pathology,
        "tumor_type": attributes.tumor_type,
    }


class StorageBackend(ABC):
    """The storage contract the :class:`MotionDatabase` facade needs.

    Concrete backends own the patient/stream records, the removal-epoch
    counter and an :class:`~repro.events.EventBus` publishing
    ``patient_added`` / ``stream_added`` / ``stream_removed`` mutation
    events.  Vertex *commits* flow through :meth:`commit_vertices` /
    :meth:`amend_vertex` — no-ops for volatile backends (the live series
    object is shared with the segmenter), journal appends for durable
    ones.
    """

    events: EventBus
    injector: object | None

    #: Optional :class:`~repro.obs.Telemetry`; the facade mirrors its
    #: handle here so durable backends can count journal records and
    #: manifest fsyncs.  ``None`` (the default) costs nothing.
    telemetry = None

    # -- writes ---------------------------------------------------------------

    @abstractmethod
    def add_patient(
        self, patient_id: str, attributes: PatientAttributes | None = None
    ) -> PatientRecord:
        """Create a patient record; the id must be new."""

    @abstractmethod
    def add_stream(
        self,
        patient_id: str,
        session_id: str,
        series: PLRSeries | None = None,
        stream_id: str | None = None,
        metadata: dict | None = None,
    ) -> StreamRecord:
        """Attach a stream to an existing patient."""

    @abstractmethod
    def remove_stream(self, stream_id: str) -> None:
        """Delete a stream record (atomic with respect to crashes)."""

    def commit_vertices(
        self, stream_id: str, vertices: Iterable[Vertex]
    ) -> None:
        """Journal vertices committed to a live stream (durability hook)."""

    def amend_vertex(self, stream_id: str, vertex: Vertex) -> None:
        """Journal a re-label of a live stream's most recent vertex."""

    def close(self) -> None:
        """Release any resources (open journal files)."""

    # -- reads ----------------------------------------------------------------

    @abstractmethod
    def patient(self, patient_id: str) -> PatientRecord:
        """The record for ``patient_id`` (KeyError when unknown)."""

    @abstractmethod
    def stream(self, stream_id: str) -> StreamRecord:
        """The record for ``stream_id`` (KeyError when unknown)."""

    @abstractmethod
    def __contains__(self, stream_id: str) -> bool: ...

    @abstractmethod
    def iter_patients(self) -> Iterator[PatientRecord]:
        """Patient records in insertion order."""

    @abstractmethod
    def iter_streams(self) -> Iterator[StreamRecord]:
        """Stream records in insertion order."""

    @property
    @abstractmethod
    def patient_ids(self) -> tuple[str, ...]: ...

    @property
    @abstractmethod
    def stream_ids(self) -> tuple[str, ...]: ...

    @property
    @abstractmethod
    def removal_epoch(self) -> int:
        """Counter bumped on every stream removal (index invalidation)."""


class InMemoryBackend(StorageBackend):
    """Dict-backed hierarchy: patients -> session streams -> PLR.

    Parameters
    ----------
    injector:
        Optional fault injector (chaos tests only).  The
        ``"store.remove_stream"`` site fires at the top of
        :meth:`remove_stream`, *before* any mutation, so a simulated
        crash there leaves the store untouched — removal is atomic with
        respect to injected crashes.
    """

    def __init__(self, injector=None) -> None:
        self._patients: dict[str, PatientRecord] = {}
        self._streams: dict[str, StreamRecord] = {}
        self._removal_epoch = 0
        self.injector = injector
        self.events = EventBus()

    # -- writes ---------------------------------------------------------------

    def add_patient(
        self, patient_id: str, attributes: PatientAttributes | None = None
    ) -> PatientRecord:
        if patient_id in self._patients:
            raise KeyError(f"patient {patient_id!r} already exists")
        record = PatientRecord(patient_id, attributes)
        self._patients[patient_id] = record
        self.events.publish("patient_added", patient_id=patient_id)
        return record

    def add_stream(
        self,
        patient_id: str,
        session_id: str,
        series: PLRSeries | None = None,
        stream_id: str | None = None,
        metadata: dict | None = None,
    ) -> StreamRecord:
        patient = self._patients.get(patient_id)
        if patient is None:
            raise KeyError(f"unknown patient {patient_id!r}")
        stream_id = stream_id or f"{patient_id}/{session_id}"
        if stream_id in self._streams:
            raise KeyError(f"stream {stream_id!r} already exists")
        record = StreamRecord(
            stream_id=stream_id,
            patient_id=patient_id,
            session_id=session_id,
            series=series if series is not None else PLRSeries(),
            metadata=metadata or {},
        )
        patient.streams[stream_id] = record
        self._streams[stream_id] = record
        self.events.publish(
            "stream_added", stream_id=stream_id, patient_id=patient_id
        )
        return record

    def remove_stream(self, stream_id: str) -> None:
        """Delete a stream record.

        The removal (both dict pops and the epoch bump) happens entirely
        after the injection point, so a simulated crash never leaves the
        store half-mutated.
        """
        if self.injector is not None:
            self.injector.fire("store.remove_stream")
        record = self._streams.pop(stream_id, None)
        if record is None:
            raise KeyError(f"unknown stream {stream_id!r}")
        del self._patients[record.patient_id].streams[stream_id]
        self._removal_epoch += 1
        self.events.publish(
            "stream_removed",
            stream_id=stream_id,
            patient_id=record.patient_id,
        )

    # -- reads ----------------------------------------------------------------

    def patient(self, patient_id: str) -> PatientRecord:
        try:
            return self._patients[patient_id]
        except KeyError:
            raise KeyError(f"unknown patient {patient_id!r}") from None

    def stream(self, stream_id: str) -> StreamRecord:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream {stream_id!r}") from None

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def iter_patients(self) -> Iterator[PatientRecord]:
        return iter(self._patients.values())

    def iter_streams(self) -> Iterator[StreamRecord]:
        return iter(self._streams.values())

    @property
    def patient_ids(self) -> tuple[str, ...]:
        return tuple(self._patients)

    @property
    def stream_ids(self) -> tuple[str, ...]:
        return tuple(self._streams)

    @property
    def removal_epoch(self) -> int:
        return self._removal_epoch


class LoggedBackend(InMemoryBackend):
    """Durable backend: in-memory reads, vertex-log + manifest writes.

    Layout of ``directory``::

        manifest.json               # identity + segment lists (atomic rewrite)
        stream-00000.jsonl          # journal segments (rotated on compaction:
        stream-00000.00001.jsonl    #   stream-NNNNN.{rotation:05d}.jsonl)
        snapshots/
          snap-000001/              # one dir per retained snapshot generation
            snapshot.json           #   per-stream watermarks + covered segments
            col-00000-times.npy     #   per-stream vertex columns
            col-00000-positions.npy
            col-00000-states.npy
            idx-00000-keys.npy      #   signature-index posting buffers
            ...

    * ``add_patient`` / ``add_stream`` / ``remove_stream`` rewrite the
      manifest through a temp-file + :func:`os.replace` dance, so a
      crash never leaves a torn manifest.
    * ``add_stream`` journals any pre-existing vertices of the series,
      then keeps the log open; live commits arrive through
      :meth:`commit_vertices` / :meth:`amend_vertex` (the ingestor's
      event-bus path) and are flushed per record.
    * :meth:`compact` writes a columnar snapshot of every stream (and
      optionally the signature index's posting buffers), rotates each
      journal to a fresh segment — ``amend_vertex`` therefore never
      rewrites history — and commits by atomically swapping the
      manifest.  The previous snapshot generation and every segment it
      does not cover are retained, so a torn snapshot manifest falls
      back one generation with a full tail replay.
    * Constructing a ``LoggedBackend`` over a directory that already
      holds a manifest **reopens** it: snapshot columns are
      memory-mapped and adopted by each series without a copy, only the
      journal tail past the snapshot watermark is replayed, and a torn final
      record (crash mid-write) is healed by truncating to the clean
      prefix.  :attr:`reopen_stats` records what the reopen touched;
      :attr:`loaded_index_buffers` carries the memory-mapped index
      payload for :meth:`StateSignatureIndex.restore_buffers
      <repro.database.index.StateSignatureIndex.restore_buffers>`.

    Parameters
    ----------
    directory:
        The database directory (created if missing).
    injector:
        Optional fault injector, forwarded to the reopened log writers
        (chaos tests only).  Compaction fires the ``compact.columns``,
        ``compact.index``, ``compact.snapshot_manifest`` (kinds
        ``crash`` / ``torn_manifest``), ``compact.rotate`` (per
        stream), ``compact.commit`` and ``compact.cleanup`` sites.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` bound at construction so
        the reopen path itself can record (the facade's setter only
        runs afterwards): spans ``backend.compact`` /
        ``backend.snapshot_load``, counters for segments rotated /
        compacted and columns memory-mapped.
    """

    def __init__(
        self, directory: str | Path, injector=None, telemetry=None
    ) -> None:
        super().__init__(injector)
        if telemetry is not None:
            self.telemetry = telemetry
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._writers: dict[str, VertexLogWriter] = {}
        #: Ordered journal segments per stream (oldest retained first).
        self._segments: dict[str, list[str]] = {}
        #: Lifetime rotation count per stream (never reused, so rotated
        #: segment names cannot collide with deleted predecessors).
        self._rotations: dict[str, int] = {}
        self._counter = 0
        self._snapshot_counter = 0
        #: Retained snapshot ids, oldest first (at most two generations).
        self._snapshot_chain: list[int] = []
        #: True until compaction first prunes a segment; while set, the
        #: journal segments alone can still rebuild every stream from
        #: genesis (the fallback of last resort).
        self._history_complete = True
        #: Memory-mapped index buffers recovered by the last reopen, in
        #: :meth:`~repro.database.index.StateSignatureIndex.export_buffers`
        #: layout; ``None`` when the directory was fresh or the loaded
        #: snapshot carried no index.
        self.loaded_index_buffers: dict | None = None
        #: What the last reopen read and replayed (tests and benchmarks).
        self.reopen_stats: dict = {}
        if self._manifest_path.exists():
            self._reopen()

    @classmethod
    def open_shard(
        cls, root: str | Path, shard: int, injector=None, telemetry=None
    ) -> "LoggedBackend":
        """Open (or create) worker ``shard``'s directory under ``root``.

        Sugar over :func:`shard_directory`; the returned backend is an
        ordinary :class:`LoggedBackend`, so reopen-from-journal,
        snapshots and compaction behave exactly as in the solo path.
        """
        return cls(
            shard_directory(root, shard), injector, telemetry=telemetry
        )

    @property
    def _manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def _snapshots_dir(self) -> Path:
        return self.directory / "snapshots"

    def _snapshot_dir(self, snapshot_id: int) -> Path:
        return self._snapshots_dir / f"snap-{snapshot_id:06d}"

    # -- manifest -------------------------------------------------------------

    def _write_manifest(self) -> None:
        payload = {
            "format": _MANIFEST_FORMAT,
            "counter": self._counter,
            "snapshot_counter": self._snapshot_counter,
            "snapshots": list(self._snapshot_chain),
            "history_complete": self._history_complete,
            "patients": [
                {
                    "patient_id": patient.patient_id,
                    "attributes": _attributes_payload(patient.attributes),
                }
                for patient in self.iter_patients()
            ],
            "streams": [
                {
                    "stream_id": record.stream_id,
                    "patient_id": record.patient_id,
                    "session_id": record.session_id,
                    "metadata": record.metadata,
                    # Legacy v1 key, kept for tooling that only knows
                    # single-segment layouts.
                    "file": self._segments[record.stream_id][0],
                    "segments": list(self._segments[record.stream_id]),
                    "rotations": self._rotations[record.stream_id],
                }
                for record in self.iter_streams()
            ],
        }
        atomic_write_text(self._manifest_path, json.dumps(payload))
        if self.telemetry is not None:
            self.telemetry.inc("backend.manifest_fsyncs")

    # -- reopen ---------------------------------------------------------------

    def _reopen(self) -> None:
        """Rebuild in-memory state: mmap the snapshot, replay the tail."""
        if self.telemetry is None:
            self._reopen_inner()
        else:
            with self.telemetry.span("backend.snapshot_load"):
                self._reopen_inner()

    def _reopen_inner(self) -> None:
        stats = {
            "snapshot_id": None,
            "torn_snapshots": 0,
            "streams_from_snapshot": 0,
            "segments_replayed": 0,
            "tombstones_skipped": 0,
            "index_lengths_loaded": 0,
            "index_lengths_rejected": 0,
            "files_read": [],
        }
        self.reopen_stats = stats
        payload, chain, loaded = _read_manifest(self.directory, stats)
        self._counter = int(payload.get("counter", 0))
        self._snapshot_counter = int(payload.get("snapshot_counter", 0))
        self._history_complete = bool(payload.get("history_complete", True))
        columns: dict = {}
        self._snapshot_chain = []
        if loaded is not None:
            columns, index_buffers = loaded
            self.loaded_index_buffers = index_buffers or None
            self._snapshot_chain = [
                i for i in chain if i <= stats["snapshot_id"]
            ]
        elif chain and not self._history_complete:
            # Every generation is torn.  While nothing has been pruned
            # (at most one generation ever committed) the journal
            # segments alone rebuild every stream from genesis; once
            # the segments covered by the oldest retained generation
            # are gone, replaying without any snapshot would silently
            # truncate history — corruption beyond the
            # crash-consistency contract: refuse loudly.
            raise ValueError(
                "no loadable snapshot generation "
                f"(tried {list(reversed(chain))})"
            )

        for patient_payload in payload["patients"]:
            attrs_payload = patient_payload.get("attributes")
            attributes = (
                PatientAttributes(**attrs_payload) if attrs_payload else None
            )
            super().add_patient(patient_payload["patient_id"], attributes)

        for stream_payload in payload["streams"]:
            stream_id = stream_payload["stream_id"]
            segments = list(
                stream_payload.get("segments") or [stream_payload["file"]]
            )
            self._segments[stream_id] = segments
            self._rotations[stream_id] = int(stream_payload.get("rotations", 0))
            entry = columns.get(stream_id)
            if entry is not None:
                # O(1) adoption: the series reads the mmap'd columns
                # until its first change copies them.
                series = PLRSeries.from_dense(
                    entry["times"], entry["positions"], entry["states"]
                )
                tail = [s for s in segments if s not in entry["covered"]]
                stats["streams_from_snapshot"] += 1
                if self.telemetry is not None:
                    self.telemetry.inc("backend.columns_mmapped", 3)
            else:
                series = None
                tail = segments
            for name in tail:
                path = self.directory / name
                stats["files_read"].append(name)
                recovered = read_vertex_log(path, into=series)
                series = recovered.series
                stats["segments_replayed"] += 1
                if recovered.truncated:
                    heal_torn_log(path, recovered)
            super().add_stream(
                patient_id=stream_payload["patient_id"],
                session_id=stream_payload["session_id"],
                series=series if series is not None else PLRSeries(),
                stream_id=stream_id,
                metadata=stream_payload.get("metadata", {}),
            )
            self._writers[stream_id] = VertexLogWriter(
                self.directory / segments[-1],
                injector=self.injector,
                append=True,
            )

    # -- compaction -----------------------------------------------------------

    def compact(self, index=None) -> dict:
        """Write a columnar snapshot, rotate every journal, swap manifests.

        Steps, in crash-consistency order (the manifest swap in step 5
        is the single atomic commit point — a crash anywhere before it
        reopens to the exact pre-compaction state, a crash anywhere
        after it to the post-compaction state):

        1. Write every stream's vertex columns into a fresh snapshot
           directory, recording which journal segments the snapshot
           covers.
        2. Export the signature index's posting buffers (when an
           ``index`` is passed) alongside them.
        3. Fsync every file written so far and the snapshot directory,
           then write ``snapshot.json`` atomically inside it.
        4. Rotate each stream's journal to a fresh segment, so the
           snapshot's covered set stays immutable and amendments never
           rewrite compacted history.
        5. Prune segments covered by the *previous* generation from the
           segment lists and atomically rewrite the top-level manifest
           (the commit).
        6. Delete unreferenced segment files and snapshot generations
           older than the previous one (opportunistic; orphans from a
           crash here are removed by the next compaction).

        Returns a stats dict and publishes ``backend_compacted``.
        """
        if self.telemetry is None:
            return self._compact_inner(index)
        with self.telemetry.span("backend.compact"):
            stats = self._compact_inner(index)
        self.telemetry.inc("backend.compactions")
        self.telemetry.inc(
            "backend.segments_rotated", stats["segments_rotated"]
        )
        self.telemetry.inc(
            "backend.segments_compacted", stats["segments_deleted"]
        )
        return stats

    def _compact_inner(self, index) -> dict:
        injector = self.injector
        snapshot_id = self._snapshot_counter + 1
        snap_dir = self._snapshot_dir(snapshot_id)
        if snap_dir.exists():
            # Leftover from a compaction that crashed before its commit
            # (the counter only advances on commit).
            shutil.rmtree(snap_dir)
        snap_dir.mkdir(parents=True)

        # 1. vertex columns + covered-segment watermarks.
        if injector is not None:
            injector.fire("compact.columns")
        stream_entries = []
        for i, record in enumerate(self.iter_streams()):
            prefix = f"col-{i:05d}"
            series = record.series
            for column in ("times", "positions", "states"):
                _save_synced(
                    snap_dir / f"{prefix}-{column}.npy", getattr(series, column)
                )
            stream_entries.append(
                {
                    "stream_id": record.stream_id,
                    "n_vertices": len(series),
                    "prefix": prefix,
                    "covered": list(self._segments[record.stream_id]),
                }
            )

        # 2. signature-index posting buffers.
        if injector is not None:
            injector.fire("compact.index")
        index_entries = []
        if index is not None:
            for j, (m, state) in enumerate(sorted(index.export_buffers().items())):
                prefix = f"idx-{j:05d}"
                for field, suffix in _INDEX_COLUMN_FILES:
                    _save_synced(
                        snap_dir / f"{prefix}-{suffix}.npy", state[field]
                    )
                index_entries.append(
                    {
                        "n_vertices": m,
                        "prefix": prefix,
                        "stream_names": state["stream_names"],
                        "next_start": state["next_start"],
                    }
                )

        # Every column file, and the directory entries naming them, must
        # be on disk before the manifest that names them: otherwise a
        # crash after the commit can reopen a snapshot with lost files.
        _fsync_directory(snap_dir)
        _fsync_directory(self._snapshots_dir)

        # 3. the snapshot's own manifest (atomic within the snapshot dir).
        text = json.dumps(
            {
                "format": _SNAPSHOT_FORMAT,
                "snapshot_id": snapshot_id,
                "streams": stream_entries,
                "index": index_entries,
            }
        )
        spec = (
            injector.fire("compact.snapshot_manifest")
            if injector is not None
            else None
        )
        if spec is not None and spec.kind == "torn_manifest":
            # Simulated fsync reordering: the snapshot manifest reaches
            # disk torn while the commit below survives; reopen must
            # fall back to the previous generation.
            surviving = int(spec.payload)
            if not 0 < surviving < len(text):
                surviving = max(1, len(text) // 2)
            (snap_dir / "snapshot.json").write_text(text[:surviving])
        else:
            atomic_write_text(snap_dir / "snapshot.json", text)

        # 4. rotate every journal to a fresh segment.
        segments_rotated = 0
        for record in list(self.iter_streams()):
            if injector is not None:
                injector.fire("compact.rotate")
            stream_id = record.stream_id
            writer = self._writers.get(stream_id)
            if writer is not None:
                writer.close()
            self._rotations[stream_id] += 1
            base = self._segments[stream_id][0].split(".")[0]
            name = f"{base}.{self._rotations[stream_id]:05d}.jsonl"
            self._segments[stream_id].append(name)
            self._writers[stream_id] = VertexLogWriter(
                self.directory / name,
                stream_id=stream_id,
                patient_id=record.patient_id,
                injector=self.injector,
            )
            segments_rotated += 1

        # 5. commit: prune segments the previous generation covers (they
        # are no longer needed by any fallback path), then swap the
        # manifest.
        if injector is not None:
            injector.fire("compact.commit")
        previous_id = self._snapshot_chain[-1] if self._snapshot_chain else None
        previous_covered = self._snapshot_covered(previous_id)
        for stream_id, segments in self._segments.items():
            covered = previous_covered.get(stream_id, set())
            kept = [s for s in segments if s not in covered]
            if len(kept) < len(segments):
                self._history_complete = False
            self._segments[stream_id] = kept
        self._snapshot_counter = snapshot_id
        self._snapshot_chain = (
            [snapshot_id]
            if previous_id is None
            else [previous_id, snapshot_id]
        )
        self._write_manifest()

        # 6. opportunistic cleanup of everything no longer referenced.
        if injector is not None:
            injector.fire("compact.cleanup")
        referenced = {
            name for segments in self._segments.values() for name in segments
        }
        segments_deleted = 0
        for path in self.directory.glob("stream-*.jsonl"):
            if path.name not in referenced:
                path.unlink()
                segments_deleted += 1
        keep = {self._snapshot_dir(i).name for i in self._snapshot_chain}
        for old_dir in self._snapshots_dir.glob("snap-*"):
            if old_dir.name not in keep:
                shutil.rmtree(old_dir, ignore_errors=True)

        stats = {
            "snapshot_id": snapshot_id,
            "n_streams": len(stream_entries),
            "n_index_lengths": len(index_entries),
            "segments_rotated": segments_rotated,
            "segments_deleted": segments_deleted,
        }
        self.events.publish("backend_compacted", **stats)
        return stats

    def _snapshot_covered(self, snapshot_id: int | None) -> dict[str, set]:
        """Per-stream covered-segment sets of one snapshot generation.

        Conservatively empty when the snapshot is missing or unreadable
        — pruning then retains everything, which is always safe.
        """
        if snapshot_id is None:
            return {}
        try:
            payload = json.loads(
                (self._snapshot_dir(snapshot_id) / "snapshot.json").read_text()
            )
            return {
                entry["stream_id"]: set(entry["covered"])
                for entry in payload["streams"]
            }
        except (OSError, ValueError, KeyError, TypeError):
            return {}

    # -- writes ---------------------------------------------------------------

    def add_patient(
        self, patient_id: str, attributes: PatientAttributes | None = None
    ) -> PatientRecord:
        record = super().add_patient(patient_id, attributes)
        self._write_manifest()
        return record

    def add_stream(
        self,
        patient_id: str,
        session_id: str,
        series: PLRSeries | None = None,
        stream_id: str | None = None,
        metadata: dict | None = None,
    ) -> StreamRecord:
        record = super().add_stream(
            patient_id, session_id, series, stream_id, metadata
        )
        file_name = f"stream-{self._counter:05d}.jsonl"
        self._counter += 1
        self._segments[record.stream_id] = [file_name]
        self._rotations[record.stream_id] = 0
        writer = VertexLogWriter(
            self.directory / file_name,
            stream_id=record.stream_id,
            patient_id=record.patient_id,
            injector=self.injector,
        )
        self._writers[record.stream_id] = writer
        if len(record.series):
            writer.extend(record.series)
        self._write_manifest()
        return record

    def remove_stream(self, stream_id: str) -> None:
        super().remove_stream(stream_id)
        writer = self._writers.pop(stream_id, None)
        if writer is not None:
            writer.close()
        for file_name in self._segments.pop(stream_id, []):
            try:
                (self.directory / file_name).unlink()
            except OSError:
                pass  # the manifest no longer references it
        self._rotations.pop(stream_id, None)
        # Snapshot columns of the removed stream stay on disk until the
        # next compaction; reopen skips them via the manifest (the
        # tombstone contract — no I/O on removed streams).
        self._write_manifest()

    def commit_vertices(
        self, stream_id: str, vertices: Iterable[Vertex]
    ) -> None:
        writer = self._writers.get(stream_id)
        if writer is not None:
            if self.telemetry is None:
                writer.extend(vertices)
            else:
                # Count only after the whole batch hit the journal: an
                # injected crash mid-batch must not inflate the durable
                # record count (no-double-count contract).
                vertices = tuple(vertices)
                writer.extend(vertices)
                self.telemetry.inc("backend.journal_records", len(vertices))

    def amend_vertex(self, stream_id: str, vertex: Vertex) -> None:
        writer = self._writers.get(stream_id)
        if writer is not None:
            writer.amend(vertex)
            if self.telemetry is not None:
                self.telemetry.inc("backend.journal_records")

    def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()


def _read_manifest(
    directory: Path, stats: dict
) -> tuple[dict, list[int], tuple[dict, dict] | None]:
    """Parse ``manifest.json`` and memory-map its newest readable snapshot.

    Walks the snapshot chain newest-first: a torn or incomplete
    generation is counted in ``stats["torn_snapshots"]`` and the
    previous one is tried (its tail segments were retained for exactly
    this).  Returns the manifest payload, its snapshot chain and the
    :func:`_read_snapshot` result of the generation recorded in
    ``stats["snapshot_id"]``, or ``None`` when no generation reads; the
    caller decides whether that is an error.  Shared by
    :meth:`LoggedBackend._reopen_inner` and :func:`open_snapshot_scan`.
    """
    payload = json.loads((directory / "manifest.json").read_text())
    if payload.get("format") not in (_MANIFEST_FORMAT, _MANIFEST_FORMAT_V1):
        raise ValueError("not a repro logged-database manifest")
    chain = [int(i) for i in payload.get("snapshots", [])]
    # Journal base name per live stream — the incarnation identity.
    # Segment names are never reused, so a stream removed and later
    # re-created under the same id gets a different base, and stale
    # snapshot entries for the dead incarnation are detectable.
    stream_bases = {
        s["stream_id"]: (s.get("segments") or [s["file"]])[0].split(".")[0]
        for s in payload["streams"]
    }
    for snap_id in reversed(chain):
        loaded = _read_snapshot(directory, snap_id, stream_bases, stats)
        if loaded is not None:
            stats["snapshot_id"] = snap_id
            return payload, chain, loaded
        stats["torn_snapshots"] += 1
    return payload, chain, None


def _read_snapshot(
    directory: Path, snapshot_id: int, stream_bases: dict, stats: dict
) -> tuple[dict, dict] | None:
    """Memory-map one snapshot generation; ``None`` when unusable.

    Any unreadable file — a torn ``snapshot.json``, a missing or corrupt
    column — invalidates the whole generation, so the caller falls back
    to the previous one.  Streams no longer in the manifest (removed
    after the snapshot was cut), and entries whose journal base no
    longer matches the live stream's (removed, then re-created under the
    same id), are skipped without touching their files — the live
    incarnation replays from its own journal.

    Returns ``(streams, index_buffers)``.
    """
    snap_dir = directory / "snapshots" / f"snap-{snapshot_id:06d}"
    manifest_path = snap_dir / "snapshot.json"
    try:
        stats["files_read"].append(str(manifest_path.relative_to(directory)))
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _SNAPSHOT_FORMAT
        or payload.get("snapshot_id") != snapshot_id
    ):
        return None
    streams: dict[str, dict] = {}
    index_buffers: dict[int, dict] = {}
    #: Stream ids whose snapshot entry belongs to a dead incarnation.
    stale: set[str] = set()
    try:
        for entry in payload["streams"]:
            stream_id = entry["stream_id"]
            base = entry["covered"][0].split(".")[0]
            if stream_bases.get(stream_id) != base:
                stale.add(stream_id)
                stats["tombstones_skipped"] += 1
                continue
            prefix = entry["prefix"]
            columns = {}
            for column in ("times", "positions", "states"):
                path = snap_dir / f"{prefix}-{column}.npy"
                stats["files_read"].append(str(path.relative_to(directory)))
                columns[column] = np.load(path, mmap_mode="r")
            streams[stream_id] = {
                "covered": set(entry["covered"]),
                **columns,
            }
        for entry in payload.get("index", []):
            # Postings referencing removed or re-created streams are
            # stale; drop the length (it rebuilds lazily) without
            # reading its buffers.
            if any(
                name in stale or name not in stream_bases
                for name in entry["stream_names"]
            ):
                continue
            prefix = entry["prefix"]
            arrays = {}
            for field, suffix in _INDEX_COLUMN_FILES:
                path = snap_dir / f"{prefix}-{suffix}.npy"
                stats["files_read"].append(str(path.relative_to(directory)))
                arrays[field] = np.load(path, mmap_mode="r")
            n_vertices = int(entry["n_vertices"])
            if not _index_buffers_valid(n_vertices, entry, arrays):
                # Damaged buffers: drop the length, which rebuilds
                # lazily like a stale one.
                stats["index_lengths_rejected"] += 1
                continue
            index_buffers[n_vertices] = {
                "stream_names": list(entry["stream_names"]),
                "next_start": dict(entry["next_start"]),
                **arrays,
            }
            stats["index_lengths_loaded"] += 1
    except (OSError, ValueError, KeyError):
        return None
    return streams, index_buffers


class SnapshotScan:
    """Read-only view of a logged directory's newest loadable snapshot.

    Built by :func:`open_snapshot_scan`.  Unlike reopening a
    :class:`LoggedBackend`, a scan **opens no journal writers and
    replays no tail segments**: it memory-maps the snapshot's vertex
    columns into adopting series and hands back the index's posting buffers
    (``idx-*`` columns) untouched.  That makes it safe to hold while a
    live writer process serves the same directory — snapshot generations
    are immutable once committed, the manifest is read through one
    atomic-rename-published file, and two-generation retention
    guarantees the pinned generation survives at least the next
    ``compact()`` (the batch-analytics concurrency contract; see
    ARCHITECTURE.md).

    The view is the fleet **as of the snapshot watermark**: streams
    created after the snapshot, vertices journalled past it, and
    tombstoned (removed or removed-then-recreated) streams are not
    visible.
    """

    def __init__(
        self,
        directory: Path,
        snapshot_id: int,
        streams: dict[str, StreamRecord],
        index_buffers: dict | None,
        stats: dict,
    ) -> None:
        self.directory = directory
        self.snapshot_id = snapshot_id
        self._streams = streams
        #: Memory-mapped index posting buffers in ``export_buffers``
        #: layout, or ``None`` when the snapshot carried no index.
        self.index_buffers = index_buffers
        #: What the scan read (mirrors ``reopen_stats``).
        self.scan_stats = stats

    @property
    def stream_ids(self) -> tuple[str, ...]:
        return tuple(self._streams)

    @property
    def n_streams(self) -> int:
        return len(self._streams)

    def stream(self, stream_id: str) -> StreamRecord:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream {stream_id!r}") from None

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def iter_streams(self) -> Iterator[StreamRecord]:
        """Stream records in manifest (insertion) order."""
        return iter(self._streams.values())


def open_snapshot_scan(directory: str | Path) -> SnapshotScan:
    """Open a read-only scan over a logged directory's latest snapshot.

    Raises ``ValueError`` with a clear message when the directory is not
    a logged database, holds no committed snapshot yet (``compact()``
    has never run), or no retained generation is loadable.
    """
    directory = Path(directory)
    if not (directory / "manifest.json").exists():
        raise ValueError(
            f"{directory} is not a logged database (no manifest.json)"
        )
    stats = {
        "snapshot_id": None,
        "torn_snapshots": 0,
        "tombstones_skipped": 0,
        "index_lengths_loaded": 0,
        "index_lengths_rejected": 0,
        "files_read": [],
    }
    payload, chain, loaded = _read_manifest(directory, stats)
    if not chain:
        raise ValueError(
            f"{directory} has no committed snapshot to scan "
            "(run compact first)"
        )
    if loaded is None:
        raise ValueError(
            "no loadable snapshot generation "
            f"(tried {list(reversed(chain))})"
        )
    columns, index_buffers = loaded
    streams: dict[str, StreamRecord] = {}
    for stream_payload in payload["streams"]:
        stream_id = stream_payload["stream_id"]
        entry = columns.get(stream_id)
        if entry is None:
            continue  # created after the snapshot, or a dead incarnation
        streams[stream_id] = StreamRecord(
            stream_id=stream_id,
            patient_id=stream_payload["patient_id"],
            session_id=stream_payload["session_id"],
            series=PLRSeries.from_dense(
                entry["times"], entry["positions"], entry["states"]
            ),
            metadata=stream_payload.get("metadata", {}),
        )
    return SnapshotScan(
        directory=directory,
        snapshot_id=stats["snapshot_id"],
        streams=streams,
        index_buffers=index_buffers or None,
        stats=stats,
    )


#: Registry of constructible backend names (CI parametrises over these).
BACKEND_NAMES = ("in_memory", "logged")


def create_backend(
    name: str,
    directory: str | Path | None = None,
    injector=None,
    telemetry=None,
) -> StorageBackend:
    """Build a backend by registry name.

    ``"in_memory"`` ignores ``directory`` and ``telemetry``; ``"logged"``
    requires a directory and binds the telemetry before reopening so the
    snapshot-load path records.
    """
    if name == "in_memory":
        return InMemoryBackend(injector)
    if name == "logged":
        if directory is None:
            raise ValueError("the logged backend needs a directory")
        return LoggedBackend(directory, injector, telemetry=telemetry)
    raise ValueError(f"unknown backend {name!r} (choose from {BACKEND_NAMES})")


# -- shard layout --------------------------------------------------------------
#
# A sharded serving tier keeps one self-contained LoggedBackend directory
# per worker under a common root:
#
#     root/
#       shard-000/   manifest.json, journals, snapshots/ ...
#       shard-001/   ...
#
# Each shard directory is a complete durable store on its own — journal
# replay, snapshot generations and torn-tail healing all apply per shard,
# so a crashed worker recovers by simply reopening its directory.


def shard_directory(root: str | Path, shard: int) -> Path:
    """The directory owned by worker ``shard`` under ``root``."""
    if shard < 0:
        raise ValueError("shard must be >= 0")
    return Path(root) / f"shard-{shard:03d}"


def list_shards(root: str | Path) -> list[int]:
    """Shard numbers present under ``root``, ascending."""
    root = Path(root)
    if not root.is_dir():
        return []
    shards = []
    for entry in root.iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith("shard-"):
            suffix = name[len("shard-"):]
            if suffix.isdigit():
                shards.append(int(suffix))
    return sorted(shards)
