"""Continuous online analysis of one live session.

:class:`OnlineAnalysisSession` packages the paper's real-time loop into a
single object: every raw sample is segmented; whenever a PLR vertex
commits, the dynamic query is regenerated and its matches retrieved; and
*every* sample (not just vertices) can be answered with a prediction at
an arbitrary wall-clock target time, by re-combining the cached matches
with the effective horizon ``target - last_vertex_time``.

This is the pattern a gating/tracking controller needs (predict at the
imaging rate, 30 Hz, under a fixed system latency), with per-sample cost
dominated by a weighted average over the retrieved matches — microseconds,
far below the paper's 30 ms budget.

Component wiring goes through
:class:`~repro.service.builder.PipelineBuilder`; under a
:class:`~repro.service.manager.SessionManager` the session instead
*shares* the manager's matcher/index (``matcher=``) and masks the other
live tenants' streams out of its retrievals (``exclude_streams=``), so
multi-tenant results stay byte-identical to running alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..database.store import MotionDatabase
from ..events import EventBus
from ..obs.telemetry import default_telemetry
from .matching import Match, MatchSet, SubsequenceMatcher
from .model import Subsequence, Vertex
from .prediction import PlanStack, PredictionPlan
from .query import QueryConfig, generate_query
from .segmentation import SegmenterConfig
from .similarity import SimilarityParams

__all__ = ["OnlineSessionConfig", "OnlineAnalysisSession"]


@dataclass(frozen=True)
class OnlineSessionConfig:
    """Configuration of a live analysis session.

    Attributes
    ----------
    similarity / query / segmenter:
        The usual pipeline parameters (Table 1 defaults).
    warmup_vertices:
        No queries until the live PLR has this many vertices.
    min_matches:
        Minimum usable matches required to answer a prediction.
    max_matches:
        Retain only the closest ``max_matches`` per refresh (top-k
        ``argpartition`` retrieval — bounds per-vertex cost on dense
        databases).  ``None`` keeps every match under the threshold.
    restrict_patients:
        Optional retrieval restriction (clustering mode).
    """

    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    query: QueryConfig = field(default_factory=QueryConfig)
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    warmup_vertices: int = 10
    min_matches: int = 1
    max_matches: int | None = None
    restrict_patients: tuple[str, ...] | None = None


class OnlineAnalysisSession:
    """Streaming ingestion plus continuous prediction for one session.

    Parameters
    ----------
    db:
        Database of historical streams (the patient must exist in it).
    patient_id / session_id:
        Identity of the live stream.
    config:
        Session parameters.
    prefilter:
        Optional online pre-filter for the segmenter.
    vertex_log:
        Optional :class:`~repro.database.log.VertexLogWriter`; committed
        vertices (and gate re-labels) are journalled for crash recovery.
    injector:
        Optional fault injector (chaos tests only).  The
        ``"online.observe"`` site fires once per raw sample and may
        drop, duplicate, reorder or NaN-corrupt it; the injector is also
        forwarded to the matcher's signature index.
    matcher:
        Optional shared matcher (the session service's shared signature
        index); the session builds its own when omitted.  Per-session
        similarity parameters are passed through explicitly on every
        call, so sharing is safe across differently-configured tenants.
    events:
        Optional session :class:`~repro.events.EventBus`; the session
        publishes ``query_refreshed`` and ``prediction_served``, and its
        ingestor publishes ``vertex_committed`` / ``vertex_amended``.
    exclude_streams:
        Streams masked out of every retrieval — an iterable, or a
        zero-argument callable returning one (the session service passes
        the live-tenant set this way so it is re-evaluated per lookup).
        The session's own stream is never excluded.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When omitted, the
        session consults :func:`~repro.obs.default_telemetry` once (the
        ``REPRO_TELEMETRY`` environment gate); the resolved handle —
        usually ``None`` — is threaded to the segmenter and, when the
        session builds its own matcher, to the matcher/index.  Enabled
        telemetry records per-sample observe/predict latency and
        drop/stale/refresh/prediction counters; disabled telemetry
        costs one ``is None`` check per sample.

    Robustness
    ----------
    Raw acquisition is not trusted: samples with non-finite time or
    position are discarded (counted in :attr:`n_dropped`) and samples
    that do not advance the clock — duplicated or re-ordered frames —
    are discarded as stale (counted in :attr:`n_stale`).  Segmentation,
    matching and prediction continue over the surviving samples instead
    of poisoning the EMA filters with NaN or crashing on a timestamp
    regression.
    """

    def __init__(
        self,
        db: MotionDatabase,
        patient_id: str,
        session_id: str = "LIVE",
        config: OnlineSessionConfig | None = None,
        prefilter=None,
        vertex_log=None,
        injector=None,
        matcher: SubsequenceMatcher | None = None,
        events: EventBus | None = None,
        exclude_streams: Iterable[str] | Callable[[], Iterable[str]] | None = None,
        telemetry=None,
    ) -> None:
        # Lazy import: repro.service imports this module at package load.
        from ..service.builder import PipelineBuilder

        self.config = config or OnlineSessionConfig()
        self.db = db
        self.injector = injector
        self.events = events
        self._exclude_streams = exclude_streams
        self._t = telemetry if telemetry is not None else default_telemetry()
        builder = PipelineBuilder.from_session_config(self.config)
        self.ingestor = builder.build_ingestor(
            db,
            patient_id,
            session_id,
            vertex_log=vertex_log,
            events=events,
            prefilter=prefilter,
            telemetry=self._t,
        )
        self.matcher = (
            matcher
            if matcher is not None
            else builder.build_matcher(db, injector=injector, telemetry=self._t)
        )
        self.predictor = builder.build_predictor(db, self.matcher)
        self._query: Subsequence | None = None
        self._matches = MatchSet.empty()
        self._plan: PredictionPlan | None = None
        # The one-row stack solo serving reads: built on the first
        # serve, its row rewritten with each new plan.
        self._stack: PlanStack | None = None
        # The series of every stream the match set names, resolved when
        # the set is installed (see _install_matches).
        self._match_series: dict = {}
        self._now: float | None = None
        self.n_dropped = 0
        self.n_stale = 0
        if self._t is not None:
            registry = self._t.registry
            self._c_samples = registry.counter("session.samples")
            self._c_dropped = registry.counter("session.dropped")
            self._c_stale = registry.counter("session.stale")
            self._c_refreshes = registry.counter("session.query_refreshes")
            self._c_requests = registry.counter("session.predictions_total")
            self._c_predictions = registry.counter("session.predictions_served")
            self._c_declined = registry.counter("session.predictions_declined")
            self._c_plan_builds = registry.counter("prediction.plan_builds")
            self._c_plan_hits = registry.counter("prediction.plan_cache_hits")
            self._c_plan_invalidations = registry.counter(
                "prediction.plan_cache_invalidations"
            )
            self._g_matches = registry.gauge("session.matches")
            self._h_observe = registry.histogram("session.observe_s")
            self._h_predict = registry.histogram("session.predict_s")
            self._h_plan_build = registry.histogram("prediction.plan_build_s")
            # Reusable span (plan builds never re-enter).
            self._plan_span = self._t.tracer.span("prediction.plan_build")

    # -- streaming --------------------------------------------------------------

    @property
    def stream_id(self) -> str:
        """Identifier of the live stream in the database."""
        return self.ingestor.stream_id

    @property
    def query(self) -> Subsequence | None:
        """The current dynamic query (``None`` during warm-up)."""
        return self._query

    @property
    def matches(self) -> list[Match]:
        """Matches of the current query (refreshed at each vertex)."""
        return list(self._matches)

    @property
    def now(self) -> float | None:
        """Clock of the latest accepted sample (``None`` before the first)."""
        return self._now

    def observe(
        self, t: float, position: Sequence[float] | float
    ) -> list[Vertex]:
        """Ingest one raw sample; refresh query/matches on vertex commits.

        Corrupt samples (non-finite, stale-clock) are counted and
        skipped — see the class docstring.  Returns the vertices
        committed by this sample.
        """
        if self._t is None:
            return self._observe(t, position)
        t0 = time.perf_counter()
        committed = self._observe(t, position)
        self._h_observe.observe(time.perf_counter() - t0)
        self._c_samples.inc()
        return committed

    def _observe(
        self, t: float, position: Sequence[float] | float
    ) -> list[Vertex]:
        """Fault-injection branch plus the clean ingest path."""
        if self.injector is not None:
            spec = self.injector.fire("online.observe")
            if spec is not None:
                if spec.kind == "drop":
                    return []  # frame lost in acquisition
                if spec.kind == "nan":
                    position = np.full_like(
                        np.atleast_1d(np.asarray(position, dtype=float)),
                        np.nan,
                    )
                elif spec.kind == "out_of_order":
                    # Delivered late, stamped with the previous frame's
                    # clock: the stale guard below discards it.
                    t = self._now if self._now is not None else t
                elif spec.kind == "duplicate":
                    committed = self._observe_clean(t, position)
                    self._observe_clean(t, position)  # replayed frame
                    return committed
        return self._observe_clean(t, position)

    def _observe_clean(
        self, t: float, position: Sequence[float] | float
    ) -> list[Vertex]:
        """Guard one sample, then ingest it and refresh query/matches."""
        if (
            type(position) is not np.ndarray
            or position.ndim != 1
            or position.dtype != np.float64
        ):
            position = np.atleast_1d(np.asarray(position, dtype=float))
        if position.shape == (1,):
            finite = math.isfinite(t) and math.isfinite(position[0])
        else:
            finite = math.isfinite(t) and bool(np.isfinite(position).all())
        if not finite:
            # Corrupt/stale frames are rare, so they count themselves
            # here instead of the hot path diffing n_dropped/n_stale on
            # every healthy sample.
            self.n_dropped += 1
            if self._t is not None:
                self._c_dropped.inc()
            return []
        if self._now is not None and t <= self._now:
            self.n_stale += 1
            if self._t is not None:
                self._c_stale.inc()
            return []
        committed = self.ingestor.add_point(t, position)
        self._now = t
        if committed and len(self.ingestor.series) >= self.config.warmup_vertices:
            self._query = generate_query(
                self.ingestor.series, self.config.query
            )
            matches = MatchSet.empty()
            if self._query is not None:
                # The matcher drops the session's own stream from the set.
                exclude = self._exclude_streams
                matches = self.matcher.find_matches(
                    self._query,
                    self.stream_id,
                    max_matches=self.config.max_matches,
                    restrict_patients=self.config.restrict_patients,
                    exclude_streams=exclude() if callable(exclude) else exclude,
                    params=self.config.similarity,
                )
            self._install_matches(matches)
            if self._t is not None:
                self._c_refreshes.inc()
            if self.events is not None:
                self.events.publish(
                    "query_refreshed",
                    stream_id=self.stream_id,
                    n_vertices=(
                        self._query.n_vertices if self._query is not None else 0
                    ),
                    n_matches=len(self._matches),
                )
        return committed

    def adopt_matches(self, matches, foreign_series=None) -> None:
        """Replace the current match set with a globally merged one.

        The sharded coordinator merges this session's local matches with
        other shards' partial top-k lists and hands the result back
        here.  ``foreign_series`` maps stream ids that live on other
        shards to bit-exact :class:`PLRSeries` copies (cross-shard
        matches only ever reference immutable historical streams), so
        every match resolves.  Invalidates the cached plan.
        """
        self._install_matches(matches, foreign_series)

    def _install_matches(self, matches, foreign_series=None) -> None:
        """Make ``matches`` the current set, and invalidate the plan.

        Resolves the series of every stream the set names now, from
        ``foreign_series`` (streams of other shards) or else the
        database, so building the plan
        later reads no stream from the database: a matched stream
        removed (or re-created) before the first prediction changes
        nothing the set serves until the next refresh.
        """
        matches = MatchSet.from_matches(matches)
        foreign = foreign_series or {}
        db = self.db
        self._match_series = {
            name: foreign[name] if name in foreign else db.stream(name).series
            for name in matches.names[np.unique(matches.codes)].tolist()
        }
        self._matches = matches
        if self._plan is not None:
            # The packed buffers no longer describe the match set.
            self._plan = None
            if self._t is not None:
                self._c_plan_invalidations.inc()
        if self._t is not None:
            self._g_matches.set(len(matches))

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> dict:
        """The session's resumable state, a value for the codec.

        Covers the segmenter (series + filter/debounce state), the
        sample-guard clock and drop/stale tallies, and the current match
        set; the query and prediction plan are *derived* state (the
        query regenerates deterministically from the restored series,
        the plan rebuilds lazily from the matches) so they are not
        serialized.  Foreign series are not included — the shard-level
        pool ships them once per checkpoint, not once per session.
        """
        record = self.ingestor.record
        return {
            "patient_id": record.patient_id,
            "session_id": record.session_id,
            "stream_id": self.stream_id,
            "segmenter": self.ingestor.segmenter.state_payload(),
            "now": self._now,
            "n_dropped": self.n_dropped,
            "n_stale": self.n_stale,
            "matches": self.matches,
        }

    def restore(self, payload: dict, foreign_series=None) -> None:
        """Adopt a :meth:`checkpoint` on a freshly opened session.

        The restored vertices are re-journalled through the database's
        durability hook (the recreated stream starts a fresh journal),
        so a later crash replays the checkpointed prefix too.  Feeding
        the post-checkpoint raw frames afterwards reproduces the
        uninterrupted session bit for bit.  ``foreign_series`` resolves
        matched streams that live on other shards.
        """
        segmenter = self.ingestor.segmenter
        restored = segmenter.restore_state(payload["segmenter"])
        if restored:
            self.db.commit_vertices(self.stream_id, restored)
        self._now = payload["now"]
        self.n_dropped = int(payload["n_dropped"])
        self.n_stale = int(payload["n_stale"])
        if len(self.ingestor.series) >= self.config.warmup_vertices:
            # The query refreshed at the last vertex commit and the
            # series has not changed since, so regeneration is exact.
            self._query = generate_query(
                self.ingestor.series, self.config.query
            )
        self._install_matches(payload["matches"], foreign_series)

    def prediction_plan(self) -> PredictionPlan | None:
        """The packed plan over the current matches (``None`` in warm-up).

        Built lazily on the first prediction after a query refresh and
        cached until the next refresh, adoption or restore replaces the
        matches.  It reads the series resolved when the matches were
        installed, never the database, so a matched stream removed since
        changes nothing it serves.
        """
        plan = self._plan
        if plan is not None:
            if self._t is not None:
                self._c_plan_hits.inc()
            return plan
        if self._query is None or not self._matches:
            return None
        series_of = self._match_series.__getitem__
        if self._t is None:
            plan = self.predictor.build_plan(
                self._query,
                self._matches,
                params=self.config.similarity,
                series_of=series_of,
            )
        else:
            span = self._plan_span
            with span:
                plan = self.predictor.build_plan(
                    self._query,
                    self._matches,
                    params=self.config.similarity,
                    series_of=series_of,
                )
            self._h_plan_build.observe(span.wall)
            self._c_plan_builds.inc()
        self._plan = plan
        return plan

    # -- prediction requests -----------------------------------------------------

    def open_request(
        self, target_time: float
    ) -> tuple[np.ndarray | None, PredictionPlan | None, float | None]:
        """Step one of a prediction request at ``target_time``.

        :meth:`predict_at` and the session service's fleet serve both run
        this step, serve the row it returns on a
        :class:`~repro.core.prediction.PlanStack`, then run
        :meth:`close_request`.  Counts the request and answers what needs
        no stack row: a decline during warm-up or for a NaN or +inf
        target, or a target inside the observed PLR (``-inf`` too), read
        from the series without building a plan.
        Returns ``(answer, plan, horizon)``: ``plan`` is ``None`` when
        ``answer`` is final, else the row to serve at ``horizon``.
        """
        if self._t is not None:
            self._c_requests.inc()
        if (
            self._query is None
            or not self._matches
            or not target_time < math.inf  # NaN or +inf
        ):
            if self._t is not None:
                self._c_declined.inc()
            return None, None, None
        series = self.ingestor.series
        horizon = target_time - series.end_time
        if horizon < 0:
            if self._t is not None:
                self._c_predictions.inc()
            return series.position_at(target_time), None, None
        return None, self.prediction_plan(), horizon

    def close_request(
        self,
        target_time: float,
        horizon: float,
        served: bool,
        n_matches: int,
        position: np.ndarray,
    ) -> np.ndarray | None:
        """Step two: account for the served row of an open request.

        Counts it as served or declined and publishes
        ``prediction_served``; returns ``position``, or ``None`` when
        too few matches had a known future (``served`` false).
        """
        if not served:
            if self._t is not None:
                self._c_declined.inc()
            return None
        if self._t is not None:
            self._c_predictions.inc()
        if self.events is not None:
            self.events.publish(
                "prediction_served",
                stream_id=self.stream_id,
                time=target_time,
                horizon=horizon,
                position=position,
                n_matches=int(n_matches),
            )
        return position

    def predict_at(self, target_time: float) -> np.ndarray | None:
        """Predicted position at an absolute ``target_time``.

        Runs :meth:`open_request`, serves its row on the session's
        one-row :class:`~repro.core.prediction.PlanStack` (rewritten
        whenever :meth:`prediction_plan` changes) at the effective
        horizon ``target_time - last_vertex_time``, and closes it.
        Returns ``None`` while warming up or when too few matches have
        a known future.
        """
        start = 0.0 if self._t is None else time.perf_counter()
        answer, plan, horizon = self.open_request(target_time)
        if plan is not None:
            if self._stack is None:
                self._stack = PlanStack([plan], [self.config.min_matches])
            else:
                self._stack.restack([plan], [self.config.min_matches])
            served, counts, positions = self._stack.serve(np.array([horizon]))
            answer = self.close_request(
                target_time, horizon, served[0], counts[0], positions[0]
            )
        if answer is not None and self._t is not None:
            self._h_predict.observe(time.perf_counter() - start)
        return answer

    def predict_ahead(self, latency: float) -> np.ndarray | None:
        """Predicted position ``latency`` seconds after the latest sample.

        The gating/tracking controller's call: compensate a fixed system
        latency at every imaging frame.
        """
        if self._now is None:
            return None
        return self.predict_at(self._now + latency)

    def finish(self, keep_stream: bool = True) -> list[Vertex]:
        """Close the live stream; optionally drop it from the database."""
        closed = self.ingestor.finish()
        if not keep_stream:
            self.db.remove_stream(self.stream_id)
        return closed
