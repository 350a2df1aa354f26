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
from ..core.prediction import PredictionPlan
from ..database.store import MotionDatabase
from ..events import EventBus
from ..obs.metrics import DEFAULT_COUNT_BUCKETS
from ..obs.telemetry import default_telemetry
from .builder import PipelineBuilder

__all__ = ["SessionManager"]


class _FleetDispatch:
    """Every live tenant's prediction plan laid end to end on one axis.

    Rows are sessions; their matches sit back to back on one flat match
    axis (``rows[m]`` is match ``m``'s row), so one :meth:`serve`
    answers every tenant's horizon with array ops over real matches
    only — the known-future compare, the tail gather and the
    interpolation never touch padding, however skewed the tenants'
    match counts are.

    Only the weighted sums need a row structure: they must run strictly
    left to right per row to stay byte-identical to
    ``PredictionPlan.serve``.  Each serve scatters the per-match terms
    (weighted offset, then weight) into zero-filled grids and takes
    ``np.cumsum`` along each grid row; the cells no match maps to stay
    exactly ``+0.0``, which a left-to-right sum passes through
    unchanged.  Rows share a grid by size class (widest first, a row
    joins while it holds at least half the class's widest row), so the
    grids hold at most twice the real matches: one wide tenant does not
    widen every other row.

    The manager caches the dispatch and restacks it only when the set of
    live plans changes (a tenant's query refresh, open/close).  A
    restack is one ``np.concatenate`` per column over the plans' own
    buffers — every plan packs its tail window once, component first,
    when it is built — so its cost follows the fleet's real match count:
    about 0.8 ms for 6 tenants holding 7,000 matches between them, on a
    2-vCPU Xeon host.
    """

    def __init__(
        self, sessions: list[OnlineAnalysisSession], plans: list[PredictionPlan]
    ) -> None:
        self.sessions = sessions
        self.plans = plans
        n_rows = len(plans)
        sizes = np.asarray([plan.n_matches for plan in plans], dtype=np.intp)
        #: Row ``r``'s matches sit at ``starts[r]:starts[r + 1]``.
        self.starts = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.starts[1:])
        n = int(self.starts[-1])
        ndim = plans[0].ndim
        lanes = 1 + ndim
        self.min_matches = np.asarray(
            [max(s.config.min_matches, 1) for s in sessions]
        )
        # Every per-match column is component first, (..., n): each
        # elementwise step of a serve then runs over contiguous rows.
        self.anchors = np.stack([plan.anchor for plan in plans])
        self.end_times = np.concatenate([plan.end_times for plan in plans])
        self.series_ends = np.concatenate(
            [plan.series_ends for plan in plans]
        )
        self.weights = np.concatenate([plan.weights for plan in plans])
        self.refs = np.concatenate([plan.refs.T for plan in plans], axis=1)
        tail = np.concatenate([plan.tail for plan in plans], axis=2)
        self.tail_upper = tail[0, 1:]
        # Vertex k of match m's tail sits at column k * n + m.
        self._tail_flat = tail.reshape(lanes, -1)
        self.rows = np.repeat(np.arange(n_rows), sizes)
        self._match_ids = np.arange(n)
        # Size classes, widest row first; each is one (lanes, rows,
        # width) grid in a shared zero-filled cell buffer.
        classes: list[list[int]] = []
        for r in np.argsort(-sizes, kind="stable"):
            if classes and 2 * sizes[r] >= sizes[classes[-1][0]]:
                classes[-1].append(int(r))
            else:
                classes.append([int(r)])
        widths = [max(int(sizes[rows[0]]), 1) for rows in classes]
        n_cells = sum(w * len(rows) for rows, w in zip(classes, widths))
        cell_buf = np.zeros((lanes, n_cells))
        cum_buf = np.empty_like(cell_buf)
        first_cell = np.empty(n_rows, dtype=np.intp)
        self._classes = []
        stop = 0
        for rows, width in zip(classes, widths):
            first_cell[rows] = stop + width * np.arange(len(rows))
            span = slice(stop, stop + width * len(rows))
            shape = (lanes, len(rows), width)
            self._classes.append(
                (
                    np.asarray(rows),
                    cell_buf[:, span].reshape(shape),
                    cum_buf[:, span].reshape(shape),
                )
            )
            stop = span.stop
        # Match m's cell: its row's first cell plus its place in the row;
        # _cell_index addresses every lane's copy in the flat buffer.
        cells = (
            first_cell[self.rows] + self._match_ids - self.starts[self.rows]
        )
        self._cell_index = (
            n_cells * np.arange(lanes)[:, None] + cells
        ).reshape(-1)
        self._cells_flat = cell_buf.reshape(-1)
        # Preallocated per-serve workspaces: serve() runs once per frame
        # for the whole fleet, so every intermediate writes into a fixed
        # buffer (ufunc ``out=``) instead of allocating.  Only the
        # returned positions array is freshly allocated per call — the
        # caller hands out row views that must outlive the next serve.
        self._b_t = np.empty(n)
        self._b_usable = np.empty(n, dtype=bool)
        self._b_not = np.empty(n, dtype=bool)
        self._b_running = np.zeros(n + 1, dtype=np.intp)
        self._b_cmp = np.empty_like(self.tail_upper, dtype=bool)
        self._b_li = np.empty(n, dtype=np.int8)
        self._b_ls = np.empty(n, dtype=np.int8)
        self._b_flat = np.empty(n, dtype=np.intp)
        self._b_g0 = np.empty((lanes, n))
        self._b_g1 = np.empty((lanes, n))
        self._b_alpha = np.empty(n)
        self._b_den = np.empty(n)
        self._b_over = np.empty(n, dtype=bool)
        self._b_terms = np.empty((lanes, n))
        self._b_sums = np.empty((lanes, n_rows))

    def matches_rows(
        self, sessions: list[OnlineAnalysisSession], plans: list[PredictionPlan]
    ) -> bool:
        """True when the cached stack was built from exactly these rows."""
        return (
            len(plans) == len(self.plans)
            and all(a is b for a, b in zip(plans, self.plans))
            and all(a is b for a, b in zip(sessions, self.sessions))
        )

    def serve(
        self, horizons: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Serve row ``s`` at ``horizons[s]`` for every row at once.

        Returns ``(served, counts, positions)``; ``positions[s]`` is
        only meaningful where ``served[s]`` (enough usable matches).
        """
        t = np.take(horizons, self.rows, out=self._b_t)
        np.add(self.end_times, t, out=t)
        usable = np.less_equal(t, self.series_ends, out=self._b_usable)
        running = self._b_running
        np.cumsum(usable, dtype=np.intp, out=running[1:])
        counts = running[self.starts[1:]] - running[self.starts[:-1]]
        served = counts >= self.min_matches
        # Segment select and gather, as PredictionPlan._futures.
        n = len(t)
        n_pairs = self.tail_upper.shape[0]
        np.less_equal(self.tail_upper, t, out=self._b_cmp)
        # An int8 count: the tail window is far narrower than 127.
        li = self._b_cmp.sum(axis=0, dtype=np.int8, out=self._b_li)
        li_safe = np.minimum(li, n_pairs - 1, out=self._b_ls)
        flat = np.multiply(li_safe, n, out=self._b_flat, dtype=np.intp)
        np.add(flat, self._match_ids, out=flat)
        g0 = self._tail_flat.take(flat, axis=1, mode="clip", out=self._b_g0)
        np.add(flat, n, out=flat)
        g1 = self._tail_flat.take(flat, axis=1, mode="clip", out=self._b_g1)
        t0 = g0[0]
        p0 = g0[1:]
        num = np.subtract(t, t0, out=self._b_alpha)
        den = np.subtract(g1[0], t0, out=self._b_den)
        alpha = np.divide(num, den, out=self._b_alpha)
        # Weighted offsets then the weight: one lane per sum.
        terms = self._b_terms
        futures = np.subtract(g1[1:], p0, out=terms[:-1])
        np.multiply(futures, alpha, out=futures)
        np.add(futures, p0, out=futures)
        overflow = np.greater(li, n_pairs - 1, out=self._b_over)
        np.logical_and(overflow, usable, out=overflow)
        if overflow.any():
            for m in np.flatnonzero(overflow):
                row = self.rows[m]
                futures[:, m] = self.plans[row].match_position_at(
                    m - self.starts[row], float(t[m])
                )
        np.subtract(futures, self.refs, out=futures)
        np.multiply(futures, self.weights, out=futures)
        terms[-1] = self.weights
        unusable = np.logical_not(usable, out=self._b_not)
        np.copyto(terms, 0.0, where=unusable)
        self._cells_flat[self._cell_index] = terms.reshape(-1)
        sums = self._b_sums
        for rows, grid, cum in self._classes:
            sums[:, rows] = np.cumsum(grid, axis=2, out=cum)[..., -1]
        totals = sums[:-1].T
        weight_sums = sums[-1]
        if served.all():
            positions = self.anchors + totals / weight_sums[:, None]
        else:
            positions = np.empty_like(self.anchors)
            rows = np.nonzero(served)[0]
            positions[rows] = (
                self.anchors[rows] + totals[rows] / weight_sums[rows, None]
            )
        return served, counts, positions


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
        self._fleet: _FleetDispatch | None = None
        self._horizons_buf: np.ndarray | None = None

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
        vertex_log=None,
        prefilter=None,
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
            prefilter=prefilter,
            vertex_log=vertex_log,
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

        The fleet-serving entry point: instead of looping
        :meth:`predict_ahead` per tenant, every session's cached
        prediction plan is laid end to end on one ragged match axis
        (cached across calls, restacked only when some tenant's matches
        changed) and a single vectorised pass serves the whole fleet.
        Results are byte-identical to the per-tenant calls, and per-session
        counters/events fire exactly as they would individually; the
        batched serve is timed as ``prediction.plan_serve`` instead of
        per-tenant ``session.predict_s``.

        Returns ``{stream_id: position | None}`` in open order.
        """
        return self._predict_fleet(
            (
                stream_id,
                session,
                None if session._now is None else session._now + latency,
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
        row_sessions: list[OnlineAnalysisSession] = []
        row_plans: list[PredictionPlan] = []
        epoch = self.database.removal_epoch
        for stream_id, session, target in targets:
            results[stream_id] = None
            if target is None:
                continue  # no samples yet: not a request, same as solo
            if session._t is None:
                # Inline the plan-cache hit check; the method call only
                # pays off when telemetry needs the hit counters.
                plan = session._plan
                if plan is None or plan.removal_epoch != epoch:
                    plan = session.prediction_plan()
            else:
                session._c_requests.inc()
                plan = session.prediction_plan()
            if plan is None:
                # Warm-up decline, identical to the solo fast path.
                if session._t is not None:
                    session._c_declined.inc()
                continue
            horizon = target - session.ingestor.series.end_time
            if horizon < 0:
                # Target inside the observed PLR: direct read, no batch.
                results[stream_id] = session.ingestor.series.position_at(
                    target
                )
                if session._t is not None:
                    session._c_predictions.inc()
                continue
            rows.append((stream_id, session, target, horizon))
            row_sessions.append(session)
            row_plans.append(plan)
        if not rows:
            return results
        n = len(rows)
        buf = self._horizons_buf
        if buf is None or len(buf) < n:
            buf = self._horizons_buf = np.empty(max(n, 8))
        horizons = buf[:n]
        for k in range(n):
            horizons[k] = rows[k][3]
        fleet = self._fleet
        if fleet is None or not fleet.matches_rows(row_sessions, row_plans):
            fleet = _FleetDispatch(row_sessions, row_plans)
            self._fleet = fleet
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
            if not served[k]:
                if session._t is not None:
                    session._c_declined.inc()
                continue
            position = positions[k]
            results[stream_id] = position
            if session._t is not None:
                session._c_predictions.inc()
            if session.events is not None:
                session.events.publish(
                    "prediction_served",
                    stream_id=stream_id,
                    time=target,
                    horizon=horizon,
                    position=position,
                    n_matches=int(counts[k]),
                )
        return results

    # -- shard-worker hooks ------------------------------------------------------

    def checkpoint_sessions(self) -> dict:
        """Every live session's resumable state plus the foreign pool.

        The sharded coordinator calls this right after a successful
        :meth:`compact` so its per-shard raw-frame log can be truncated
        at the compaction watermark: crash recovery restores this
        checkpoint and re-feeds only the post-watermark frames instead
        of replaying every frame since the session opened.
        """
        pool = {
            sid: {
                "times": series.times.tolist(),
                "positions": series.positions.tolist(),
                "states": [int(s) for s in series.states],
            }
            for sid, series in self._foreign_series.items()
        }
        return {
            "pool": pool,
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
        """
        from ..core.model import PLRSeries

        if pool:
            self._foreign_series.update(
                {
                    sid: PLRSeries.from_dense(
                        np.asarray(payload["times"], dtype=float),
                        np.asarray(payload["positions"], dtype=float),
                        np.asarray(payload["states"], dtype=np.int8),
                    )
                    for sid, payload in pool.items()
                }
            )
        for entry in entries:
            if "open" in entry:
                spec = entry["open"]
                self.open_session(spec["patient_id"], spec["session_id"])
                continue
            checkpoint = entry["restore"]
            session = self.open_session(
                checkpoint["patient_id"], checkpoint["session_id"]
            )
            foreign = {
                sid: self._foreign_series[sid]
                for sid in checkpoint["foreign"]
                if sid in self._foreign_series
            }
            session.restore(checkpoint, foreign or None)

    def query_view(self, stream_id: str):
        """The portable projection of one tenant's current query.

        ``None`` during warm-up.  A shard worker ships this to the
        coordinator after each query refresh so sibling shards can score
        the query against their own historical streams.
        """
        from ..core.matching import QueryView

        query = self._sessions[stream_id]._query
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
        one.  Every adoption re-resolves its matches against the pool,
        which makes per-shard shipping dedup safe across tenants.
        """
        if foreign_series:
            self._foreign_series.update(foreign_series)
        pooled = {
            match.stream_id: self._foreign_series[match.stream_id]
            for match in matches
            if match.stream_id not in self.database
            and match.stream_id in self._foreign_series
        }
        self._sessions[stream_id].adopt_matches(matches, pooled or None)

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
