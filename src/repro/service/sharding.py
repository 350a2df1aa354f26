"""Sharded multi-process serving tier: router, workers, coordinator.

The single-process :class:`~repro.service.manager.SessionManager` serves
a fleet from one database + signature index.  This module scales that
horizontally, TSseek-style: a :class:`ShardRouter` assigns every patient
(and therefore all of a patient's streams) to one of N worker processes
via consistent hashing; each worker owns a self-contained database +
index shard (one :class:`~repro.database.backend.LoggedBackend`
directory) and hosts the live sessions of its patients inside an
ordinary ``SessionManager``.  A front-end :class:`ShardCoordinator`
scatters retrievals and prediction ticks over a length-prefixed JSON
wire protocol and merges per-shard top-k lists into the global result.

**Byte-identity contract.**  Sharded serving returns exactly the bytes
the single-process path returns, by construction:

* Patients partition across shards, so every cross-shard candidate is
  an OTHER_PATIENT candidate — remote shards score queries with
  ``query_stream_id=None``, which assigns precisely the ``w_s`` weight
  a single process would give those same streams.
* :func:`~repro.core.similarity.batch_distance` reduces each candidate
  row independently of the batch height, so per-shard distances carry
  the same bits as the one big single-process batch.
* Per-shard top-k lists are heads of the same deterministic total
  order ``(distance, stream_id, start)``; merging and truncating
  (:meth:`~repro.core.matching.PartialTopK.merge`) is therefore exactly
  the global top-k.
* Cross-shard matches reference immutable historical streams only
  (every worker excludes its own live tenants from scatter lookups),
  so the coordinator ships each foreign series once — bit-exact over
  JSON float ``repr`` — and the home session's prediction plan resolves
  it from a local cache.

**Crash contract.**  A worker that dies mid-serve (EOF on its socket),
or whose reply frame is corrupt (:class:`WireCorrupt`: a length prefix
over :data:`MAX_FRAME_BYTES`, or a body that is not a UTF-8 JSON
object), raises :class:`WorkerCrashed`; the coordinator respawns the
worker over the same shard directory (journal replay + snapshot
recovery restore the historical state), drops the stale partial live
streams, re-opens the shard's sessions and re-feeds their raw frames
from the coordinator's frame log.  Segmentation is deterministic, so the
recovered shard's series, matches and predictions are byte-identical
to a run without the crash; survivors are untouched (re-sent frames
are dropped by the sessions' stale-clock guard).  Scatter lookups are
read-only and idempotent, so interrupted refresh rounds simply re-run.

The tick protocol is phased send-all-then-read-all, so workers compute
concurrently while the coordinator stays single-threaded:

1. scatter the tick's samples to each home shard; replies carry the
   refreshed queries (portable :class:`~repro.core.matching.QueryView`
   payloads plus the home-local top-k) and relayed event envelopes;
2. batch all refreshed queries into one ``scatter_find`` per *other*
   shard and gather the partial top-k lists;
3. merge, fetch any not-yet-shipped foreign series from their owning
   shards, and deliver ``complete_refresh`` adoptions to home shards;
4. ``predict_ahead_all`` broadcasts fleet prediction separately (the
   coordinator always completes pending refreshes first, so a session
   never predicts from a transient local-only match set).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import socket
import struct
from bisect import bisect_right
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.matching import Match, PartialTopK, QueryView, match_sort_key
from ..core.model import PLRSeries
from ..database.store import MotionDatabase
from ..events import (
    EventBus,
    UnknownTagError,
    decode_event,
    decode_value,
    encode_event,
    encode_value,
)
from ..obs.exposition import registry_snapshot_from_payload, snapshot_payload
from ..obs.telemetry import Telemetry, default_telemetry
from .builder import PipelineBuilder
from .manager import SessionManager

__all__ = [
    "DEFAULT_RELAY_KINDS",
    "ShardCoordinator",
    "ShardRouter",
    "ShardWorker",
    "MAX_FRAME_BYTES",
    "WireCorrupt",
    "WireEOF",
    "WorkerCrashed",
    "partition_database",
    "worker_main",
]

#: Event kinds workers relay to the coordinator's bus by default.  The
#: per-frame firehose kinds (``vertex_committed`` / ``vertex_amended`` /
#: ``prediction_served``) stay shard-local unless explicitly requested —
#: relaying them costs wire bytes per frame without changing any result
#: (vertex logs subscribe on the worker's own bus).
DEFAULT_RELAY_KINDS = (
    "session_opened",
    "session_closed",
    "query_refreshed",
    "alarm",
    "backend_compacted",
    "telemetry_snapshot",
)

_DEFAULT_VNODES = 64


class WireEOF(ConnectionError):
    """The peer closed its socket mid-protocol."""


class WireCorrupt(WireEOF):
    """A frame's length prefix or body is garbage.

    A subclass of :class:`WireEOF`, so every handler of a dead peer —
    crash, respawn, journal replay — handles a corrupt one too; the
    stream cannot be resynchronised after a bad frame.
    """


class WorkerCrashed(RuntimeError):
    """A shard worker died mid-serve (socket EOF or broken pipe)."""

    def __init__(self, shard: int) -> None:
        super().__init__(f"shard worker {shard} crashed mid-serve")
        self.shard = shard


# -- wire protocol -------------------------------------------------------------
#
# One frame = 4-byte big-endian length prefix + compact UTF-8 JSON.
# Python's json round-trips float repr bit-exactly and both ends are
# Python, so JSON is as faithful as msgpack here without a dependency.

#: Largest frame body a reader accepts.  The largest frame the sharded
#: test suite sends (tests/test_sharding.py and tests/test_cli.py) is a
#: 19,524-byte reply; perfbench's 48-tenant ``sharded-durable`` workload
#: peaks at a 220,542-byte reply.  64 MiB is some 300 times the larger,
#: while a garbled prefix (up to 4 GiB) is refused before any body byte
#: is read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _send_frame(sock: socket.socket, obj: dict) -> None:
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_frame(reader) -> dict:
    header = reader.read(4)
    if len(header) < 4:
        raise WireEOF("peer closed the connection")
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise WireCorrupt(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    data = reader.read(length)
    if len(data) < length:
        raise WireEOF("peer closed the connection mid-frame")
    try:
        frame = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise WireCorrupt(f"undecodable frame body: {exc}") from None
    if not isinstance(frame, dict):
        raise WireCorrupt(
            f"frame body is a JSON {type(frame).__name__}, not an object"
        )
    return frame


def _decode_reply(reply: dict) -> dict:
    """Decode a reply's tagged payloads (matches, predictions, events) in
    place, so that a reply that cannot be decoded takes the crash path
    (:class:`WireCorrupt`) before the caller applies any of the
    exchange.  Query views stay encoded: they are forwarded as they are.
    """
    try:
        for entry in reply.get("refreshed", []) + reply.get("results", []):
            entry["matches"] = decode_value(entry["matches"])
        if "matches" in reply:
            reply["matches"] = decode_value(reply["matches"])
        if "predictions" in reply:
            reply["predictions"] = {
                sid: decode_value(encoded)
                for sid, encoded in reply["predictions"].items()
            }
        if "events" in reply:
            reply["events"] = [decode_event(e) for e in reply["events"]]
    except UnknownTagError as exc:
        raise WireCorrupt(f"undecodable reply: {exc}") from None
    return reply


# -- consistent-hash router ----------------------------------------------------


def _stable_hash(key: str) -> int:
    """A platform-stable 64-bit hash (never Python's salted ``hash``)."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Consistent hashing of patient ids onto ``n_shards`` workers.

    Each shard owns ``vnodes`` points on a 64-bit hash ring; a patient
    maps to the first point clockwise of its own hash.  All streams of
    a patient co-locate (the router keys on *patient* id), which is
    what makes cross-shard candidates uniformly OTHER_PATIENT and the
    per-shard top-k lists mergeable without re-scoring.  Virtual nodes
    keep the assignment stable under shard-count changes: growing the
    ring moves only the keys landing on the new shard's points.
    """

    def __init__(self, n_shards: int, vnodes: int = _DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.n_shards = n_shards
        self.vnodes = vnodes
        ring = []
        for shard in range(n_shards):
            for v in range(vnodes):
                ring.append((_stable_hash(f"shard:{shard}:vnode:{v}"), shard))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def shard_of(self, patient_id: str) -> int:
        """The shard owning ``patient_id``."""
        i = bisect_right(self._points, _stable_hash(str(patient_id)))
        if i == len(self._points):
            i = 0
        return self._owners[i]

    def partition(self, patient_ids: Iterable[str]) -> dict[int, list[str]]:
        """Group patient ids by owning shard (all shards present)."""
        groups: dict[int, list[str]] = {s: [] for s in range(self.n_shards)}
        for pid in patient_ids:
            groups[self.shard_of(pid)].append(pid)
        return groups


def partition_database(
    history: MotionDatabase,
    root: str | Path,
    n_shards: int,
    vnodes: int = _DEFAULT_VNODES,
) -> ShardRouter:
    """Split a history database into per-shard LoggedBackend directories.

    Every patient (with all their streams) lands on the shard the
    returned router assigns; empty shards still get a directory so
    workers can open them.  Series round-trip through the journal's
    float ``repr``, so each shard reopens bit-exact copies.
    """
    import copy

    router = ShardRouter(n_shards, vnodes)
    shard_dbs: dict[int, MotionDatabase] = {}
    for patient in history.iter_patients():
        shard = router.shard_of(patient.patient_id)
        db = shard_dbs.get(shard)
        if db is None:
            db = shard_dbs[shard] = MotionDatabase.open_shard(root, shard)
        db.add_patient(patient.patient_id, patient.attributes)
        for record in patient.streams.values():
            db.add_stream(
                patient.patient_id,
                record.session_id,
                copy.deepcopy(record.series),
                record.stream_id,
                dict(record.metadata),
            )
    for shard in range(n_shards):
        if shard not in shard_dbs:
            shard_dbs[shard] = MotionDatabase.open_shard(root, shard)
    for db in shard_dbs.values():
        db.close()
    return router


# -- series shipping -----------------------------------------------------------


def _series_payload(series: PLRSeries) -> dict:
    return {
        "times": series.times.tolist(),
        "positions": series.positions.tolist(),
        "states": [int(s) for s in series.states],
    }


def _series_from_payload(payload: Mapping[str, Any]) -> PLRSeries:
    return PLRSeries.from_dense(
        np.asarray(payload["times"], dtype=float),
        np.asarray(payload["positions"], dtype=float),
        np.asarray(payload["states"], dtype=np.int8),
    )


def _series_digest(series: PLRSeries) -> str:
    """A byte-level fingerprint (tests assert cross-process identity)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(series.times).tobytes())
    h.update(np.ascontiguousarray(series.positions).tobytes())
    h.update(np.ascontiguousarray(series.states).tobytes())
    return h.hexdigest()


# -- worker --------------------------------------------------------------------


class ShardWorker:
    """One shard's serving loop: a SessionManager behind a socket.

    Runs inside the worker process (:func:`worker_main`).  Owns the
    shard's durable database, hosts its patients' live sessions, and
    answers coordinator RPCs.  Local event traffic is queued as encoded
    envelopes and piggybacked on the next ``tick`` / ``predict`` reply.
    """

    def __init__(
        self,
        shard: int,
        sock: socket.socket,
        payload: Mapping[str, Any],
    ) -> None:
        self.shard = shard
        self.sock = sock
        self.reader = sock.makefile("rb")
        injector = None
        fault = payload.get("fault")
        if fault is not None:
            from ..testing.faults import FaultInjector, FaultPlan

            injector = FaultInjector(
                FaultPlan.crash_at(
                    fault["site"], fault["at"], fault.get("kind", "crash")
                )
            )
        telemetry = (
            Telemetry() if payload.get("telemetry") else default_telemetry()
        )
        builder = PipelineBuilder.from_payload(payload["builder"])
        database = MotionDatabase.open_shard(
            payload["root"], shard, injector, telemetry=telemetry
        )
        self.manager = SessionManager(
            database=database,
            builder=builder,
            injector=injector,
            telemetry=telemetry,
        )
        self._t = self.manager.telemetry
        if self._t is not None:
            registry = self._t.registry
            self._c_rpcs = registry.counter("shard.rpcs")
            self._c_find_serves = registry.counter("shard.find_serves")
            self._c_relayed = registry.counter("shard.events_relayed")
        self._events: list[dict] = []
        self._refreshed: dict[str, None] = {}
        relay_kinds = payload.get("relay_kinds")
        if relay_kinds is None:
            relay_kinds = DEFAULT_RELAY_KINDS
        for kind in relay_kinds:
            self.manager.events.subscribe(kind, self._relay)
        self.manager.events.subscribe("query_refreshed", self._on_refresh)

    # -- bus taps ----------------------------------------------------------------

    def _relay(self, event) -> None:
        self._events.append(encode_event(event))
        if self._t is not None:
            self._c_relayed.inc()

    def _on_refresh(self, event) -> None:
        self._refreshed[event["stream_id"]] = None

    def _drain_events(self) -> list[dict]:
        events, self._events = self._events, []
        return events

    # -- rpc handlers ------------------------------------------------------------

    def handle(self, request: Mapping[str, Any]) -> dict:
        op = request["op"]
        if self._t is not None:
            self._c_rpcs.inc()
        return getattr(self, f"_op_{op}")(request)

    def _op_open_session(self, request) -> dict:
        session = self.manager.open_session(
            request["patient_id"], request["session_id"]
        )
        return {"stream_id": session.stream_id}

    def _op_close_session(self, request) -> dict:
        self.manager.close_session(
            request["stream_id"], keep_stream=request.get("keep_stream", True)
        )
        return {}

    def _op_tick(self, request) -> dict:
        self._refreshed.clear()
        committed = self.manager.tick(request["t"], request["samples"])
        refreshed = []
        for stream_id in self._refreshed:
            view = self.manager.query_view(stream_id)
            session = self.manager.session(stream_id)
            refreshed.append(
                {
                    "stream_id": stream_id,
                    "query": None if view is None else view.to_payload(),
                    "matches": encode_value(session.matches),
                }
            )
        return {
            "committed": {sid: len(v) for sid, v in committed.items()},
            "refreshed": refreshed,
            "events": self._drain_events(),
        }

    def _op_scatter_find(self, request) -> dict:
        # Remote queries: every local candidate is another patient's
        # stream, and this worker's own live tenants are excluded —
        # together with the home shard's own exclusion set this equals
        # the single-process live-tenant mask.
        manager = self.manager
        exclude = manager.live_stream_ids()
        results = []
        for entry in request["queries"]:
            partial = manager.matcher.find_partial(
                QueryView.from_payload(entry["view"]),
                max_matches=manager.builder.max_matches,
                exclude_streams=exclude,
                params=manager.builder.similarity,
            )
            results.append(
                {
                    "qid": entry["qid"],
                    "matches": encode_value(list(partial.matches)),
                }
            )
            if self._t is not None:
                self._c_find_serves.inc()
        return {"results": results}

    def _op_complete_refresh(self, request) -> dict:
        for adoption in request["adoptions"]:
            foreign = {
                sid: _series_from_payload(payload)
                for sid, payload in adoption["series"].items()
            }
            self.manager.adopt_matches(
                adoption["stream_id"],
                decode_value(adoption["matches"]),
                foreign,
            )
        return {}

    def _op_predict_ahead_all(self, request) -> dict:
        predictions = self.manager.predict_ahead_all(request["latency"])
        return {
            "predictions": {
                sid: None if pos is None else encode_value(pos)
                for sid, pos in predictions.items()
            },
            "events": self._drain_events(),
        }

    def _op_get_series(self, request) -> dict:
        db = self.manager.database
        return {
            "series": {
                sid: _series_payload(db.stream(sid).series)
                for sid in request["stream_ids"]
            }
        }

    def _op_get_matches(self, request) -> dict:
        session = self.manager.session(request["stream_id"])
        return {"matches": encode_value(session.matches)}

    def _op_digests(self, request) -> dict:
        db = self.manager.database
        stream_ids = request.get("stream_ids")
        if stream_ids is None:
            stream_ids = db.stream_ids
        return {
            "digests": {
                sid: _series_digest(db.stream(sid).series)
                for sid in stream_ids
            }
        }

    def _op_stream_lens(self, request) -> dict:
        db = self.manager.database
        stream_ids = request.get("stream_ids")
        if stream_ids is None:
            stream_ids = db.stream_ids
        return {
            "lens": {
                sid: len(db.stream(sid).series) for sid in stream_ids
            }
        }

    def _op_drop_streams(self, request) -> dict:
        db = self.manager.database
        dropped = []
        for sid in request["stream_ids"]:
            if sid in db:
                db.remove_stream(sid)
                dropped.append(sid)
        return {"dropped": dropped}

    def _op_compact(self, request) -> dict:
        return {"stats": self.manager.compact()}

    def _op_checkpoint_sessions(self, request) -> dict:
        return {"checkpoint": self.manager.checkpoint_sessions()}

    def _op_restore_sessions(self, request) -> dict:
        self.manager.restore_sessions(
            request["sessions"], request.get("pool")
        )
        return {}

    def _op_snapshot(self, request) -> dict:
        if self._t is None:
            return {"snapshot": None}
        return {"snapshot": snapshot_payload(self._t.snapshot())}

    def _op_shutdown(self, request) -> dict:
        return {}

    # -- loop --------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Answer RPCs until ``shutdown`` or a simulated crash."""
        from ..testing.faults import SimulatedCrash

        _send_frame(self.sock, {"op": "hello", "shard": self.shard})
        while True:
            request = _recv_frame(self.reader)
            try:
                reply = self.handle(request)
            except SimulatedCrash:
                # A chaos fault fired inside the serve path: die like a
                # real crash — no reply, no cleanup, no flush.  The
                # coordinator sees EOF and runs shard recovery.
                os._exit(23)
            except Exception as exc:  # surfaced to the coordinator
                _send_frame(
                    self.sock,
                    {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                )
                continue
            reply["ok"] = True
            _send_frame(self.sock, reply)
            if request["op"] == "shutdown":
                break
        self.manager.close(keep_streams=True)
        self.sock.close()


def worker_main(
    host: str, port: int, shard: int, payload: dict
) -> None:
    """Entry point of a spawned shard-worker process."""
    sock = socket.create_connection((host, port), timeout=120)
    sock.settimeout(None)
    ShardWorker(shard, sock, payload).serve_forever()


# -- coordinator ---------------------------------------------------------------


class ShardCoordinator:
    """Front-end of the sharded tier: scatter, gather, merge, recover.

    Parameters
    ----------
    root:
        Directory holding one ``shard-NNN`` LoggedBackend directory per
        worker (see :func:`partition_database`).
    n_workers:
        Number of worker processes to spawn.
    builder:
        Pipeline parameters, shipped to every worker (must be portable —
        see :meth:`PipelineBuilder.to_payload`).  Sessions opened through
        the coordinator use the builder-derived default config.
    events:
        Coordinator-side bus; workers' relayed events are re-published
        here (kinds in ``relay_kinds``).
    telemetry:
        Optional coordinator telemetry (``router.*`` instruments).
        Defaults to the ``REPRO_TELEMETRY`` gate.
    worker_telemetry:
        Force-enable telemetry inside workers (their snapshots are
        fetched with :meth:`worker_snapshots` and merge exactly).
    relay_kinds:
        Event kinds workers relay (default
        :data:`DEFAULT_RELAY_KINDS`).
    faults:
        Optional ``{shard: {"site", "at", "kind"}}`` chaos injection,
        applied to the *first* incarnation of each worker only —
        recovered workers always respawn clean.
    max_recoveries:
        Crash-recovery budget per public call before giving up.
    """

    def __init__(
        self,
        root: str | Path,
        n_workers: int,
        builder: PipelineBuilder | None = None,
        events: EventBus | None = None,
        telemetry=None,
        worker_telemetry: bool = False,
        relay_kinds: Sequence[str] | None = None,
        faults: Mapping[int, Mapping[str, Any]] | None = None,
        vnodes: int = _DEFAULT_VNODES,
        max_recoveries: int = 3,
    ) -> None:
        self.root = Path(root)
        self.builder = builder if builder is not None else PipelineBuilder()
        self.router = ShardRouter(n_workers, vnodes)
        self.events = events if events is not None else EventBus()
        self.telemetry = (
            telemetry if telemetry is not None else default_telemetry()
        )
        self.max_recoveries = max_recoveries
        self._worker_payload = {
            "root": str(self.root),
            "builder": self.builder.to_payload(),
            "telemetry": bool(worker_telemetry),
            "relay_kinds": (
                list(relay_kinds) if relay_kinds is not None else None
            ),
        }
        self._faults = dict(faults) if faults else {}
        if self.telemetry is not None:
            registry = self.telemetry.registry
            self._c_ticks = registry.counter("router.ticks")
            self._c_scatter = registry.counter("router.scatter_finds")
            self._c_foreign = registry.counter("router.foreign_matches")
            self._c_shipped = registry.counter("router.series_shipped")
            self._c_crashes = registry.counter("router.worker_crashes")
            self._c_recoveries = registry.counter("router.recoveries")
            self._tick_span = self.telemetry.tracer.span("router.tick")
            self._scatter_span = self.telemetry.tracer.span("router.scatter")
            self._predict_span = self.telemetry.tracer.span("router.predict")
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(120)
        self._host, self._port = self._listener.getsockname()
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: dict[int, Any] = {}
        self._socks: dict[int, socket.socket] = {}
        self._readers: dict[int, Any] = {}
        #: Tenant registry in global open order: sid -> (patient, session, shard).
        self._tenants: dict[str, tuple[str, str, int]] = {}
        #: Per-shard tenant open order (recovery re-opens in sequence).
        self._shard_tenants: dict[int, list[str]] = {
            s: [] for s in range(n_workers)
        }
        #: Raw-frame log per shard: the replication stream for recovery.
        #: Bounded by compaction — :meth:`compact` checkpoints every
        #: shard's sessions and truncates the log at the watermark, so
        #: the log only ever holds the frames since the last compaction.
        self._frame_log: dict[int, list[tuple[float, dict]]] = {
            s: [] for s in range(n_workers)
        }
        #: Per-shard session checkpoints taken at the last compaction
        #: (an empty one before the first): recovery restores the
        #: checkpoint and re-feeds only the post-watermark frame-log
        #: suffix.
        self._checkpoints: dict[int, dict] = {
            s: {"sessions": [], "pool": {}} for s in range(n_workers)
        }
        #: Refreshed queries whose cross-shard completion is outstanding.
        self._pending: dict[str, dict] = {}
        #: Foreign-series shipping state: coordinator-wide payload cache
        #: plus the set of stream ids already shipped to each shard.
        self._series_cache: dict[str, dict] = {}
        self._shipped: dict[int, set[str]] = {s: set() for s in range(n_workers)}
        for shard in range(n_workers):
            self._spawn(shard, with_fault=True)

    # -- process & socket plumbing ----------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.router.n_shards

    def _spawn(self, shard: int, with_fault: bool) -> None:
        payload = dict(self._worker_payload)
        if with_fault and shard in self._faults:
            payload["fault"] = dict(self._faults[shard])
        proc = self._ctx.Process(
            target=worker_main,
            args=(self._host, self._port, shard, payload),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        proc.start()
        sock, _ = self._listener.accept()
        sock.settimeout(None)
        reader = sock.makefile("rb")
        hello = _recv_frame(reader)
        if hello.get("op") != "hello" or hello.get("shard") != shard:
            raise RuntimeError(f"unexpected worker handshake: {hello}")
        self._procs[shard] = proc
        self._socks[shard] = sock
        self._readers[shard] = reader

    def _exchange(
        self, requests: Mapping[int, dict]
    ) -> tuple[dict[int, dict], int | None]:
        """Send one request per shard, then gather every reply.

        Sends all frames before reading any (workers compute
        concurrently).  Returns ``(replies, crashed_shard)``; on a
        crash the surviving replies are still gathered and returned so
        the caller can fold them in before recovering.  A failed reply
        (``ok: false``) is raised only once every sent shard's reply has
        been read, so no stale reply is left for the next RPC.
        """
        crashed = None
        sent = []
        for shard, request in requests.items():
            try:
                _send_frame(self._socks[shard], request)
                sent.append(shard)
            except OSError:
                crashed = shard
        replies: dict[int, dict] = {}
        for shard in sent:
            try:
                replies[shard] = _decode_reply(
                    _recv_frame(self._readers[shard])
                )
            except (OSError, WireEOF):
                # EOF for a clean death; ECONNRESET for a hard kill.
                crashed = shard
        for shard, reply in replies.items():
            self._check_reply(shard, reply)
        return replies, crashed

    @staticmethod
    def _check_reply(shard: int, reply: dict) -> dict:
        if not reply.get("ok"):
            raise RuntimeError(
                f"shard {shard} RPC failed: {reply.get('error')}"
            )
        return reply

    def _request(self, shard: int, request: dict) -> dict:
        try:
            _send_frame(self._socks[shard], request)
            reply = _decode_reply(_recv_frame(self._readers[shard]))
        except (OSError, WireEOF):
            raise WorkerCrashed(shard) from None
        return self._check_reply(shard, reply)

    # -- lifecycle ---------------------------------------------------------------

    def open_session(self, patient_id: str, session_id: str = "LIVE") -> str:
        """Open a live session on the patient's home shard."""
        shard = self.router.shard_of(patient_id)
        reply = self._request(
            shard,
            {
                "op": "open_session",
                "patient_id": patient_id,
                "session_id": session_id,
            },
        )
        stream_id = reply["stream_id"]
        self._tenants[stream_id] = (patient_id, session_id, shard)
        self._shard_tenants[shard].append(stream_id)
        return stream_id

    def close_session(self, stream_id: str, keep_stream: bool = True) -> None:
        """Finish one tenant's session on its home shard."""
        patient_id, session_id, shard = self._tenants.pop(stream_id)
        self._shard_tenants[shard].remove(stream_id)
        self._pending.pop(stream_id, None)
        # A closed session must not resurrect at the next recovery.
        checkpoint = self._checkpoints[shard]
        checkpoint["sessions"] = [
            entry
            for entry in checkpoint["sessions"]
            if entry["stream_id"] != stream_id
        ]
        self._request(
            shard,
            {
                "op": "close_session",
                "stream_id": stream_id,
                "keep_stream": keep_stream,
            },
        )

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        for shard, sock in list(self._socks.items()):
            try:
                _send_frame(sock, {"op": "shutdown"})
                _recv_frame(self._readers[shard])
            except (OSError, WireEOF):
                pass
            sock.close()
        for proc in self._procs.values():
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        self._listener.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -----------------------------------------------------------------

    def tick(self, t: float, samples: Mapping[str, Any]) -> dict[str, int]:
        """Dispatch one acquisition tick fleet-wide.

        Returns committed-vertex counts per stream.  A worker crash
        during any phase triggers in-place recovery (journal replay +
        frame re-feed) and the tick is retried; survivors drop the
        re-sent frames via their stale-clock guard, so results stay
        byte-identical to an uninterrupted run.
        """
        wire = {
            sid: (
                position.tolist()
                if isinstance(position, np.ndarray)
                else (
                    float(position)
                    if isinstance(position, (int, float))
                    else [float(x) for x in position]
                )
            )
            for sid, position in samples.items()
        }
        by_shard: dict[int, dict] = {}
        for sid, position in wire.items():
            shard = self._tenants[sid][2]
            by_shard.setdefault(shard, {})[sid] = position
        for shard, shard_samples in by_shard.items():
            self._frame_log[shard].append((t, shard_samples))
        if self.telemetry is None:
            return self._retry(lambda: self._tick_once(t, by_shard))
        with self._tick_span:
            committed = self._retry(lambda: self._tick_once(t, by_shard))
        self._c_ticks.inc()
        return committed

    def _retry(self, call):
        for _ in range(self.max_recoveries):
            try:
                return call()
            except WorkerCrashed as crash:
                self._recover(crash.shard)
        return call()

    def _tick_once(self, t: float, by_shard: Mapping[int, dict]) -> dict[str, int]:
        replies, crashed = self._exchange(
            {
                shard: {"op": "tick", "t": t, "samples": shard_samples}
                for shard, shard_samples in by_shard.items()
            }
        )
        committed: dict[str, int] = {}
        for shard, reply in replies.items():
            committed.update(reply["committed"])
            self._absorb_refresh(shard, reply["refreshed"])
            self._publish_events(reply["events"])
        if crashed is not None:
            raise WorkerCrashed(crashed)
        self._complete_pending()
        return committed

    def _absorb_refresh(self, shard: int, refreshed: list[dict]) -> None:
        for entry in refreshed:
            sid = entry["stream_id"]
            if entry["query"] is None:
                # The query collapsed (instability): the session already
                # holds the correct empty match set; nothing to scatter.
                self._pending.pop(sid, None)
                continue
            self._pending[sid] = {
                "shard": shard,
                "view": entry["query"],
                "local": entry["matches"],
            }

    def _publish_events(self, events: list) -> None:
        for event in events:
            self.events.publish(event.kind, **event.data)

    def _complete_pending(self) -> None:
        """Phases 2+3: scatter pending queries, merge, deliver adoptions."""
        if not self._pending:
            return
        if self.telemetry is None:
            self._complete_pending_inner()
        else:
            with self._scatter_span:
                self._complete_pending_inner()

    def _complete_pending_inner(self) -> None:
        pending = self._pending
        # Phase 2: one scatter_find per shard, batching every pending
        # query whose home is elsewhere.
        requests: dict[int, dict] = {}
        for shard in range(self.n_workers):
            queries = [
                {"qid": sid, "view": entry["view"]}
                for sid, entry in pending.items()
                if entry["shard"] != shard
            ]
            if queries:
                requests[shard] = {"op": "scatter_find", "queries": queries}
        partials: dict[str, list[PartialTopK]] = {sid: [] for sid in pending}
        owner_of: dict[str, int] = {}
        if requests:
            replies, crashed = self._exchange(requests)
            if crashed is not None:
                raise WorkerCrashed(crashed)
            if self.telemetry is not None:
                self._c_scatter.inc(len(requests))
            for shard, reply in replies.items():
                for result in reply["results"]:
                    matches = result["matches"]
                    for match in matches:
                        owner_of[match.stream_id] = shard
                    partials[result["qid"]].append(
                        PartialTopK(matches=tuple(matches))
                    )
        # Phase 3a: merge and plan the foreign-series shipping.
        max_matches = self.builder.max_matches
        adoptions: dict[int, list[dict]] = {}
        need: dict[int, set[str]] = {}
        merged_of: dict[str, list[Match]] = {}
        for sid, entry in pending.items():
            home = entry["shard"]
            local = PartialTopK(matches=tuple(entry["local"]))
            merged = PartialTopK.merge(
                [local, *partials[sid]], max_matches=max_matches
            )
            merged_of[sid] = merged
            for match in merged:
                owner = owner_of.get(match.stream_id)
                if owner is None or owner == home:
                    continue  # a home-shard stream
                if self.telemetry is not None:
                    self._c_foreign.inc()
                if match.stream_id not in self._shipped[home]:
                    if match.stream_id not in self._series_cache:
                        need.setdefault(owner, set()).add(match.stream_id)
        # Phase 3b: fetch series payloads this coordinator has never seen.
        if need:
            replies, crashed = self._exchange(
                {
                    owner: {"op": "get_series", "stream_ids": sorted(ids)}
                    for owner, ids in need.items()
                }
            )
            for reply in replies.values():
                self._series_cache.update(reply["series"])
            if crashed is not None:
                raise WorkerCrashed(crashed)
        # Phase 3c: deliver merged matches + missing series to home shards.
        for sid, merged in merged_of.items():
            home = pending[sid]["shard"]
            series: dict[str, dict] = {}
            for match in merged:
                owner = owner_of.get(match.stream_id)
                if owner is None or owner == home:
                    continue
                if match.stream_id in self._shipped[home]:
                    continue
                series[match.stream_id] = self._series_cache[match.stream_id]
            adoptions.setdefault(home, []).append(
                {
                    "stream_id": sid,
                    "matches": encode_value(merged),
                    "series": series,
                }
            )
        if adoptions:
            replies, crashed = self._exchange(
                {
                    shard: {"op": "complete_refresh", "adoptions": batch}
                    for shard, batch in adoptions.items()
                }
            )
            for shard in replies:
                for adoption in adoptions[shard]:
                    for shipped_sid in adoption["series"]:
                        self._shipped[shard].add(shipped_sid)
                        if self.telemetry is not None:
                            self._c_shipped.inc()
                    self._pending.pop(adoption["stream_id"], None)
            if crashed is not None:
                raise WorkerCrashed(crashed)
        else:
            # Nothing to deliver (e.g. every pending query collapsed).
            self._pending.clear()

    def predict_ahead_all(self, latency: float) -> dict[str, np.ndarray | None]:
        """Every tenant's latency-compensated prediction, fleet-wide.

        Completes any outstanding refresh rounds first, so no session
        serves from a transient local-only match set.  Results arrive
        in global session-open order, byte-identical to the
        single-process :meth:`SessionManager.predict_ahead_all`.
        """
        if self.telemetry is None:
            return self._retry(lambda: self._predict_once(latency))
        with self._predict_span:
            return self._retry(lambda: self._predict_once(latency))

    def _predict_once(self, latency: float) -> dict[str, np.ndarray | None]:
        self._complete_pending()
        shards = {
            shard
            for shard, tenants in self._shard_tenants.items()
            if tenants
        }
        replies, crashed = self._exchange(
            {
                shard: {"op": "predict_ahead_all", "latency": latency}
                for shard in shards
            }
        )
        by_stream: dict[str, np.ndarray | None] = {}
        for reply in replies.values():
            by_stream.update(reply["predictions"])
            self._publish_events(reply["events"])
        if crashed is not None:
            raise WorkerCrashed(crashed)
        # Global session-open order, exactly like the solo manager.
        return {sid: by_stream.get(sid) for sid in self._tenants}

    # -- maintenance & introspection ---------------------------------------------

    def compact(self) -> dict[int, dict | None]:
        """Compact every shard's durable store (with its index).

        Also truncates the per-shard raw-frame logs: after each shard's
        snapshot commits, its sessions are checkpointed
        (:meth:`SessionManager.checkpoint_sessions`) and the frames the
        checkpoint already covers are dropped from the log, so recovery
        replays only the post-compaction suffix and coordinator memory
        stays bounded by the tick traffic *between* compactions.

        A worker dying mid-compaction is not fatal: committed snapshot
        generations are immutable and the manifest swap is atomic, so
        the shard directory is still consistent — the worker is
        recovered in place and its compaction retried once.
        """
        watermarks = {
            shard: len(self._frame_log[shard])
            for shard in range(self.n_workers)
        }
        replies, crashed = self._exchange(
            {shard: {"op": "compact"} for shard in range(self.n_workers)}
        )
        stats = {shard: reply["stats"] for shard, reply in replies.items()}
        if crashed is not None:
            self._recover(crashed)
            stats[crashed] = self._request(crashed, {"op": "compact"})["stats"]
        check_replies, crashed = self._exchange(
            {
                shard: {"op": "checkpoint_sessions"}
                for shard in range(self.n_workers)
            }
        )
        if crashed is not None:
            self._recover(crashed)
            check_replies[crashed] = self._request(
                crashed, {"op": "checkpoint_sessions"}
            )
        for shard, reply in check_replies.items():
            # Install the checkpoint and truncate atomically (from the
            # caller's view): checkpoint + remaining log always replay
            # to the current fleet state.
            self._checkpoints[shard] = reply["checkpoint"]
            del self._frame_log[shard][:watermarks[shard]]
        return stats

    def matches_of(self, stream_id: str) -> list[Match]:
        """One tenant's current (globally merged) matches."""
        shard = self._tenants[stream_id][2]
        reply = self._request(
            shard, {"op": "get_matches", "stream_id": stream_id}
        )
        return reply["matches"]

    def stream_length(self, stream_id: str) -> int:
        """Committed-vertex count of one tenant's live series."""
        shard = self._tenants[stream_id][2]
        reply = self._request(
            shard, {"op": "stream_lens", "stream_ids": [stream_id]}
        )
        return reply["lens"][stream_id]

    def digests(self, shard: int, stream_ids=None) -> dict[str, str]:
        """Byte-level series fingerprints of one shard's streams."""
        request: dict = {"op": "digests"}
        if stream_ids is not None:
            request["stream_ids"] = list(stream_ids)
        return self._request(shard, request)["digests"]

    def worker_snapshots(self) -> dict[int, dict | None]:
        """Each worker's telemetry snapshot payload (``None`` if off)."""
        replies, crashed = self._exchange(
            {shard: {"op": "snapshot"} for shard in range(self.n_workers)}
        )
        if crashed is not None:
            raise WorkerCrashed(crashed)
        return {shard: reply["snapshot"] for shard, reply in replies.items()}

    def fleet_registry(self):
        """All workers' merged registries folded into one fleet view.

        Decodes each worker-reported snapshot payload and folds the
        shard-scoped children under a single
        :class:`~repro.obs.metrics.RegistrySnapshot`; counter totals
        equal a single-process registry's exactly (integer sums).
        """
        from ..obs.metrics import RegistrySnapshot

        fleet = RegistrySnapshot.empty()
        for payload in self.worker_snapshots().values():
            if payload is None:
                continue
            fleet = fleet.merge(
                registry_snapshot_from_payload(payload["merged"])
            )
        return fleet

    def live_stream_ids(self) -> tuple[str, ...]:
        """All tenants in global open order."""
        return tuple(self._tenants)

    def shard_of_stream(self, stream_id: str) -> int:
        """The home shard of one tenant."""
        return self._tenants[stream_id][2]

    # -- crash recovery ----------------------------------------------------------

    def _recover(self, shard: int) -> None:
        """Respawn a crashed worker and replay its shard to currency.

        The fresh process journal-replays the shard directory (restoring
        every historical stream bit-exactly) and the stale partial live
        streams are dropped.  The shard's sessions restore the last
        compaction checkpoint in their original order, tenants it does
        not hold re-opening fresh (all of them before the first
        compaction), and only the frame-log suffix past its watermark is
        re-fed (the full log before the first compaction).  Segmentation
        is deterministic, so the recovered shard's series, matches and
        predictions are byte-identical to an uninterrupted run.
        Refreshes raised during replay land in the pending set (latest
        per stream) and complete through the normal scatter path
        afterwards.
        """
        if self.telemetry is not None:
            self._c_crashes.inc()
        # The socket's descriptor stays open while its reader does, so
        # close both: a live worker (one that sent a corrupt frame) then
        # reads EOF and exits instead of waiting out the join timeout.
        for stream in (self._readers[shard], self._socks[shard]):
            try:
                stream.close()
            except OSError:
                pass
        proc = self._procs[shard]
        proc.join(timeout=30)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10)
        self._spawn(shard, with_fault=False)
        # The journal replayed whatever the crashed worker had durably
        # committed for its live tenants; segmentation resumes from the
        # checkpoint (or genesis), so those partial streams go away
        # first.
        tenants = self._shard_tenants[shard]
        if tenants:
            self._request(
                shard, {"op": "drop_streams", "stream_ids": list(tenants)}
            )
        # Ordered restore: checkpointed tenants resume their state,
        # tenants opened after the checkpoint start fresh — in the
        # fleet's session-open order either way.
        checkpoint = self._checkpoints[shard]
        by_sid = {
            entry["stream_id"]: entry for entry in checkpoint["sessions"]
        }
        entries = []
        for sid in tenants:
            entry = by_sid.get(sid)
            if entry is not None:
                entries.append({"restore": entry})
            else:
                patient_id, session_id, _ = self._tenants[sid]
                entries.append(
                    {
                        "open": {
                            "patient_id": patient_id,
                            "session_id": session_id,
                        }
                    }
                )
        if entries or checkpoint["pool"]:
            self._request(
                shard,
                {
                    "op": "restore_sessions",
                    "sessions": entries,
                    "pool": checkpoint["pool"],
                },
            )
        # The restored pool is exactly what the shard now holds; series
        # shipped after the checkpoint are gone and must ship again on
        # demand.
        self._shipped[shard] = set(checkpoint["pool"])
        for t, shard_samples in self._frame_log[shard]:
            reply = self._request(
                shard, {"op": "tick", "t": t, "samples": shard_samples}
            )
            # Replay refreshes supersede any pre-crash pending entries;
            # relayed events are dropped (they were already published).
            self._absorb_refresh(shard, reply["refreshed"])
        if self.telemetry is not None:
            self._c_recoveries.inc()
