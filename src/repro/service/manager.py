"""Multi-tenant session service: N live sessions, one database + index.

The ROADMAP north star is a production-scale system serving many
concurrent treatment rooms.  :class:`SessionManager` hosts any number of
live :class:`~repro.core.online.OnlineAnalysisSession` tenants over one
shared :class:`~repro.database.store.MotionDatabase` and **one shared
matcher/signature index** — catch-up work done for one tenant's query is
immediately reused by every other tenant, instead of each session paying
to index the whole fleet's streams separately.

Isolation contract: each tenant's retrieval **excludes the other live
streams** (their futures have not happened yet, and a tenant must not
couple to concurrent strangers), so matches and predictions are
byte-identical to running that session alone against the same historical
database.  Per-session similarity parameters are honoured by passing
them explicitly through the shared matcher on every call.

All sessions share the manager's :class:`~repro.events.EventBus`;
subscribers (vertex logs, monitors, alarms, gating — see
:mod:`repro.service.wiring`) filter by ``stream_id``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.matching import SubsequenceMatcher
from ..core.model import Vertex
from ..core.online import OnlineAnalysisSession, OnlineSessionConfig
from ..core.prediction import PlanStack
from ..database.store import MotionDatabase
from ..events import EventBus
from ..obs.metrics import DEFAULT_COUNT_BUCKETS
from ..obs.telemetry import default_telemetry
from .builder import PipelineBuilder

__all__ = ["SessionManager"]


class SessionManager:
    """Hosts concurrent live analysis sessions over a shared database.

    Parameters
    ----------
    database:
        The shared store (historical streams plus every tenant's live
        stream); a fresh in-memory one is created if omitted.
    builder:
        Pipeline factory supplying the shared matcher and the default
        session parameters.
    events:
        The shared session bus; a fresh one is created if omitted.
    injector:
        Optional fault injector (chaos tests only), forwarded to the
        shared signature index.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When omitted, the
        manager consults :func:`~repro.obs.default_telemetry` once (the
        ``REPRO_TELEMETRY`` environment gate).  An enabled manager owns
        the telemetry *root*: service-level instruments (tick latency,
        frames, live-session gauge) land on the root registry, each
        tenant gets a :meth:`~repro.obs.Telemetry.scoped` child keyed by
        its stream id, the shared matcher/index/backend record into the
        root, and periodic :class:`~repro.obs.TelemetrySnapshot` events
        are published on the manager's bus from inside :meth:`tick`.
    """

    def __init__(
        self,
        database: MotionDatabase | None = None,
        builder: PipelineBuilder | None = None,
        events: EventBus | None = None,
        injector=None,
        telemetry=None,
    ) -> None:
        self.database = database if database is not None else MotionDatabase()
        self.builder = builder if builder is not None else PipelineBuilder()
        self.events = events if events is not None else EventBus()
        self.telemetry = (
            telemetry if telemetry is not None else default_telemetry()
        )
        if self.telemetry is not None:
            if self.telemetry.events is None:
                self.telemetry.events = self.events
            if self.database.telemetry is None:
                self.database.telemetry = self.telemetry
            registry = self.telemetry.registry
            self._c_ticks = registry.counter("service.ticks")
            self._c_frames = registry.counter("service.frames")
            self._h_tick = registry.histogram("service.tick_s")
            self._h_tick_samples = registry.histogram(
                "service.tick_samples", bounds=DEFAULT_COUNT_BUCKETS
            )
            self._g_sessions = registry.gauge("service.live_sessions")
            self._c_batches = registry.counter("service.predict_batches")
            self._h_batch_rows = registry.histogram(
                "service.predict_batch_rows", bounds=DEFAULT_COUNT_BUCKETS
            )
            self._h_plan_serve = registry.histogram("prediction.plan_serve_s")
            # One reusable span each: tick() and fleet serving are never
            # re-entrant, so caching the context managers avoids a
            # per-call allocation.
            self._tick_span = self.telemetry.tracer.span("service.tick")
            self._plan_serve_span = self.telemetry.tracer.span(
                "prediction.plan_serve"
            )
        self.matcher: SubsequenceMatcher = self.builder.build_matcher(
            self.database, injector=injector, telemetry=self.telemetry
        )
        self._sessions: dict[str, OnlineAnalysisSession] = {}
        #: Shard-level pool of adopted foreign series: one shipped copy
        #: serves every tenant on this manager (the coordinator dedups
        #: shipping per shard, not per session).
        self._foreign_series: dict = {}
        self._fleet: PlanStack | None = None

    # -- lifecycle --------------------------------------------------------------

    def default_config(self) -> OnlineSessionConfig:
        """The per-session config derived from the manager's builder."""
        return OnlineSessionConfig(
            similarity=self.builder.similarity,
            query=self.builder.query,
            segmenter=self.builder.segmenter,
            min_matches=self.builder.min_matches,
            max_matches=self.builder.max_matches,
        )

    def open_session(
        self,
        patient_id: str,
        session_id: str = "LIVE",
        config: OnlineSessionConfig | None = None,
    ) -> OnlineAnalysisSession:
        """Start a live session for a patient; returns the session.

        The patient is registered on first use.  The session shares the
        manager's matcher (and signature index) but excludes every other
        live tenant's stream from its retrievals.
        """
        if patient_id not in self.database.patient_ids:
            self.database.add_patient(patient_id)
        scoped = None
        if self.telemetry is not None:
            # Scope key matches the default stream id; per-tenant counts
            # land on the child registry, rolled up in every snapshot.
            scoped = self.telemetry.scoped(f"{patient_id}/{session_id}")
        session = OnlineAnalysisSession(
            self.database,
            patient_id,
            session_id,
            config=config if config is not None else self.default_config(),
            matcher=self.matcher,
            events=self.events,
            exclude_streams=self.live_stream_ids,
            telemetry=scoped,
        )
        self._sessions[session.stream_id] = session
        if self.telemetry is not None:
            self._g_sessions.set(len(self._sessions))
        self.events.publish(
            "session_opened",
            stream_id=session.stream_id,
            patient_id=patient_id,
        )
        return session

    def close_session(
        self, stream_id: str, keep_stream: bool = True
    ) -> list[Vertex]:
        """Finish one session; optionally drop its stream from the store."""
        session = self._sessions.pop(stream_id)
        closed = session.finish(keep_stream=keep_stream)
        if self.telemetry is not None:
            self._g_sessions.set(len(self._sessions))
        self.events.publish("session_closed", stream_id=stream_id)
        return closed

    def close(self, keep_streams: bool = True) -> None:
        """Finish every session and release backend resources."""
        for stream_id in list(self._sessions):
            self.close_session(stream_id, keep_stream=keep_streams)
        self.database.close()

    def compact(self) -> dict | None:
        """Snapshot the durable backend, including the shared index.

        Safe to call between ticks on a live service: every journal
        record is flushed as written, so the snapshot captures exactly
        the committed state; journals rotate underneath the open
        sessions without touching their in-memory series.  Publishes
        the compaction stats as a ``backend_compacted`` event on the
        manager's bus (the backend's own bus carries one too) and
        returns them; ``None`` when the backend has no compaction (the
        in-memory default).
        """
        stats = self.database.compact(index=self.matcher.index)
        if stats is not None:
            self.events.publish("backend_compacted", **stats)
        return stats

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ---------------------------------------------------------------

    def observe(
        self, stream_id: str, t: float, position: Sequence[float] | float
    ) -> list[Vertex]:
        """Route one raw sample to one tenant."""
        return self._sessions[stream_id].observe(t, position)

    def tick(
        self, t: float, samples: Mapping[str, Sequence[float] | float]
    ) -> dict[str, list[Vertex]]:
        """Dispatch one acquisition tick's samples to their tenants.

        ``samples`` maps live stream ids to that tick's raw positions;
        sessions are served in open order (deterministic), and the
        committed vertices are returned per stream.  With telemetry
        enabled, the tick is timed (``service.tick`` span + histogram)
        and a periodic ``telemetry_snapshot`` event is published on the
        manager's bus every ``snapshot_interval`` stream-seconds.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return self._dispatch(t, samples)
        span = self._tick_span
        with span:
            committed = self._dispatch(t, samples)
        self._h_tick.observe(span.wall)
        self._c_ticks.inc()
        self._c_frames.inc(len(samples))
        self._h_tick_samples.observe(len(samples))
        telemetry.maybe_publish(t)
        return committed

    def _dispatch(
        self, t: float, samples: Mapping[str, Sequence[float] | float]
    ) -> dict[str, list[Vertex]]:
        """Serve one tick's samples to their sessions, in open order."""
        committed: dict[str, list[Vertex]] = {}
        for stream_id, session in list(self._sessions.items()):
            if stream_id in samples:
                committed[stream_id] = session.observe(t, samples[stream_id])
        return committed

    def predict_ahead(self, stream_id: str, latency: float):
        """One tenant's latency-compensated prediction (or ``None``)."""
        return self._sessions[stream_id].predict_ahead(latency)

    def predict_at(self, stream_id: str, target_time: float):
        """One tenant's prediction at an absolute time (or ``None``)."""
        return self._sessions[stream_id].predict_at(target_time)

    def predict_ahead_all(
        self, latency: float
    ) -> dict[str, np.ndarray | None]:
        """Every tenant's latency-compensated prediction, one dispatch.

        The fleet-serving entry point.  Each tenant's request runs the
        session's own two steps
        (:meth:`~repro.core.online.OnlineAnalysisSession.open_request`,
        then ``close_request``); the rows between them are the rows of
        the manager's live :class:`~repro.core.prediction.PlanStack` (a
        tenant's new plan rewrites only its own row), served in a single
        vectorised pass.  Results, counters and events equal the
        per-tenant :meth:`predict_ahead` calls bit for bit; the batched
        serve is timed as ``prediction.plan_serve`` instead of per-tenant
        ``session.predict_s``.

        Returns ``{stream_id: position | None}`` in open order.
        """
        return self._predict_fleet(
            (
                stream_id,
                session,
                None if session.now is None else session.now + latency,
            )
            for stream_id, session in self._sessions.items()
        )

    def predict_at_all(
        self, target_time: float
    ) -> dict[str, np.ndarray | None]:
        """Every tenant's prediction at one absolute time, one dispatch."""
        return self._predict_fleet(
            (stream_id, session, target_time)
            for stream_id, session in self._sessions.items()
        )

    def _predict_fleet(
        self,
        targets: Iterable[tuple[str, OnlineAnalysisSession, float | None]],
    ) -> dict[str, np.ndarray | None]:
        """Serve one prediction target per tenant via the stacked plans."""
        results: dict[str, np.ndarray | None] = {}
        rows: list[tuple[str, OnlineAnalysisSession, float, float]] = []
        plans, mins = [], []
        for stream_id, session, target in targets:
            if target is None:
                # No samples yet: not a request, same as solo.
                results[stream_id] = None
                continue
            results[stream_id], plan, horizon = session.open_request(target)
            if plan is not None:
                rows.append((stream_id, session, target, horizon))
                plans.append(plan)
                mins.append(session.config.min_matches)
        if not rows:
            return results
        horizons = np.array([row[3] for row in rows])
        fleet = self._fleet
        if fleet is None:
            fleet = self._fleet = PlanStack(plans, mins)
        else:
            fleet.restack(plans, mins)
        if self.telemetry is None:
            served, counts, positions = fleet.serve(horizons)
        else:
            span = self._plan_serve_span
            with span:
                served, counts, positions = fleet.serve(horizons)
            self._h_plan_serve.observe(span.wall)
            self._c_batches.inc()
            self._h_batch_rows.observe(len(rows))
        for k, (stream_id, session, target, horizon) in enumerate(rows):
            results[stream_id] = session.close_request(
                target, horizon, served[k], counts[k], positions[k]
            )
        return results

    # -- shard-worker hooks ------------------------------------------------------

    def checkpoint_sessions(self) -> dict:
        """Every live session's resumable state plus the foreign pool.

        The sharded coordinator calls this right after a successful
        :meth:`compact` so its per-shard raw-frame log can be truncated
        at the compaction watermark: crash recovery restores this
        checkpoint and re-feeds only the post-watermark frames instead
        of replaying every frame since the session opened.  A value for
        the codec (:func:`~repro.events.encode_value`).
        """
        return {
            "pool": dict(self._foreign_series),
            "sessions": [
                session.checkpoint() for session in self._sessions.values()
            ],
        }

    def restore_sessions(self, entries, pool=None) -> None:
        """Reopen sessions from a checkpoint, in the given order.

        Each entry either restores a checkpointed session (``{"restore":
        <session.checkpoint() payload>}``) or opens a fresh one that was
        started after the checkpoint (``{"open": {"patient_id", ...,
        "session_id"}}``); order matters — it is the fleet's session-open
        order, which drives tick dispatch and prediction batching.
        ``pool`` is the checkpoint's foreign series pool.
        """
        if pool:
            self._foreign_series.update(pool)
        for entry in entries:
            if "open" in entry:
                spec = entry["open"]
                self.open_session(spec["patient_id"], spec["session_id"])
                continue
            checkpoint = entry["restore"]
            session = self.open_session(
                checkpoint["patient_id"], checkpoint["session_id"]
            )
            session.restore(checkpoint, self._foreign_series)

    def query_view(self, stream_id: str):
        """The portable projection of one tenant's current query.

        ``None`` during warm-up.  A shard worker ships this to the
        coordinator after each query refresh so sibling shards can score
        the query against their own historical streams.
        """
        from ..core.matching import QueryView

        query = self._sessions[stream_id].query
        if query is None:
            return None
        return QueryView.from_query(query)

    def adopt_matches(
        self, stream_id: str, matches, foreign_series=None
    ) -> None:
        """Install a globally merged match set on one tenant.

        Delegates to :meth:`OnlineAnalysisSession.adopt_matches
        <repro.core.online.OnlineAnalysisSession.adopt_matches>`; the
        coordinator calls this after scatter/gather so the tenant's next
        prediction plan covers cross-shard matches too.

        Shipped series pool at the manager level: the coordinator sends
        each foreign stream to a shard **once**, so a later adoption by
        a different tenant may reference a stream shipped for an earlier
        one.  Every adoption resolves its matches against the pool,
        which makes per-shard shipping dedup safe across tenants.
        """
        if foreign_series:
            self._foreign_series.update(foreign_series)
        self._sessions[stream_id].adopt_matches(matches, self._foreign_series)

    # -- introspection ----------------------------------------------------------

    def live_stream_ids(self) -> tuple[str, ...]:
        """Stream ids of every open session (the tenant exclusion set)."""
        return tuple(self._sessions)

    def session(self, stream_id: str) -> OnlineAnalysisSession:
        """The live session owning ``stream_id``."""
        return self._sessions[stream_id]

    def sessions(self) -> Iterable[OnlineAnalysisSession]:
        """The live sessions, in open order."""
        return tuple(self._sessions.values())

    @property
    def n_sessions(self) -> int:
        """Number of open sessions."""
        return len(self._sessions)
