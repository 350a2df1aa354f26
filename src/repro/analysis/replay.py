"""Online-prediction replay harness.

Replays a raw session stream point by point through the full online
pipeline — segmentation, dynamic query generation, subsequence matching,
prediction — and scores every prediction against the final PLR of the
stream (the paper's reference: "the mean difference between the predicted
positions and PLR values").  All Section 7 prediction experiments
(Figures 6, 7, 8a, 9) are parameterisations of this harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..core.model import PLRSeries
from ..core.prediction import PlanStack
from ..core.query import QueryConfig, fixed_query, generate_query
from ..core.similarity import SimilarityParams
from ..core.segmentation import OnlineSegmenter, SegmenterConfig
from ..database.store import MotionDatabase
from ..service.builder import PipelineBuilder
from ..signals.respiratory import RawStream
from .metrics import ErrorSummary, summarize_errors

__all__ = [
    "ReplayConfig",
    "ReplayResult",
    "replay_session",
    "replay_session_baseline",
]


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of one replay run.

    Attributes
    ----------
    horizons:
        Prediction look-aheads in seconds (the paper sweeps 0-300 ms);
        at least one, each finite and ``>= 0``.
    similarity:
        Definition 2 parameters used for matching and weighting.
    query:
        Dynamic query generator settings.
    fixed_cycles:
        When set, use a fixed-length query of this many cycles instead of
        the dynamic generator (the Figure 7 baseline).
    warmup_vertices:
        No predictions until the live PLR has this many vertices.
    min_matches / max_matches:
        Predictor retrieval settings.
    threshold:
        Distance threshold override (defaults to the params' ``delta``).
    restrict_patients:
        When given, retrieval searches only these patients' streams
        (Figure 8a "with clustering").
    segmenter:
        Online segmenter tuning.
    use_index:
        Retrieve through the signature index or by linear scan.
    prefilter_factory:
        Optional zero-argument callable building a fresh online pre-filter
        (see :mod:`repro.core.filters`) per replay; filters are stateful,
        so a shared instance cannot be reused across sessions.
    """

    horizons: tuple[float, ...] = (0.1, 0.2, 0.3)
    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    query: QueryConfig = field(default_factory=QueryConfig)
    fixed_cycles: int | None = None
    warmup_vertices: int = 12
    min_matches: int = 2
    max_matches: int | None = None
    threshold: float | None = None
    restrict_patients: tuple[str, ...] | None = None
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    use_index: bool = True
    anchor: str = "last"
    prefilter_factory: object = None

    def __post_init__(self) -> None:
        if not self.horizons:
            raise ValueError("horizons must name at least one look-ahead")
        for horizon in self.horizons:
            if not (math.isfinite(horizon) and horizon >= 0):
                raise ValueError(
                    f"horizons must be finite and >= 0, got {horizon!r}"
                )


@dataclass
class ReplayResult:
    """Scored outcome of one replay."""

    stream_id: str
    errors_by_horizon: dict[float, list[float]]
    n_opportunities: int
    n_predictions: int
    query_lengths: list[int]

    @property
    def coverage(self) -> float:
        """Fraction of prediction opportunities that produced a prediction."""
        if self.n_opportunities == 0:
            return float("nan")
        return self.n_predictions / self.n_opportunities

    def errors(self, horizon: float | None = None) -> list[float]:
        """Errors for one horizon, or pooled over all horizons."""
        if horizon is not None:
            return self.errors_by_horizon.get(horizon, [])
        pooled: list[float] = []
        for errors in self.errors_by_horizon.values():
            pooled.extend(errors)
        return pooled

    def summary(self, horizon: float | None = None) -> ErrorSummary:
        """Summary statistics of the (pooled or per-horizon) errors."""
        return summarize_errors(self.errors(horizon))

    @property
    def mean_query_cycles(self) -> float:
        """Average query length in breathing cycles (Figure 7b's metric)."""
        if not self.query_lengths:
            return float("nan")
        return float(np.mean([(n - 1) / 3 for n in self.query_lengths]))

    @staticmethod
    def merge(results: Iterable["ReplayResult"]) -> "ReplayResult":
        """Pool several replay results into one aggregate."""
        merged = ReplayResult("<merged>", {}, 0, 0, [])
        for result in results:
            for horizon, errors in result.errors_by_horizon.items():
                merged.errors_by_horizon.setdefault(horizon, []).extend(errors)
            merged.n_opportunities += result.n_opportunities
            merged.n_predictions += result.n_predictions
            merged.query_lengths.extend(result.query_lengths)
        return merged


def _make_query(series: PLRSeries, config: ReplayConfig):
    if config.fixed_cycles is not None:
        return fixed_query(series, config.fixed_cycles)
    return generate_query(series, config.query)


def replay_session(
    db: MotionDatabase,
    raw: RawStream,
    config: ReplayConfig | None = None,
    session_id: str = "LIVE",
    keep_stream: bool = False,
) -> ReplayResult:
    """Replay one raw session through the online pipeline and score it.

    The live stream is ingested into ``db`` for the duration of the replay
    (so the query's own history is searchable with the same-session weight)
    and removed afterwards unless ``keep_stream`` is set.

    Parameters
    ----------
    db:
        Database of historical streams; the raw stream's patient must
        already exist in it.
    raw:
        The raw session to replay (provides patient identity and samples).
    config:
        Replay parameters.
    session_id:
        Session label for the temporary live stream.
    keep_stream:
        Leave the segmented live stream in the database afterwards.
    """
    config = config or ReplayConfig()
    builder = PipelineBuilder.from_replay_config(config)
    pipeline = builder.build(
        db,
        raw.patient_id,
        session_id,
        prefilter=(
            config.prefilter_factory()
            if config.prefilter_factory is not None
            else None
        ),
    )
    ingestor = pipeline.ingestor
    matcher = pipeline.matcher
    predictor = pipeline.predictor
    horizons = np.asarray(config.horizons, dtype=float)

    pending: list[tuple[float, float, np.ndarray]] = []
    n_opportunities = 0
    n_predictions = 0
    query_lengths: list[int] = []

    for t, position in raw.iter_points():
        committed = ingestor.add_point(t, position)
        if not committed or len(ingestor.series) < config.warmup_vertices:
            continue
        query = _make_query(ingestor.series, config)
        if query is None:
            continue
        query_lengths.append(query.n_vertices)
        # Matches depend only on the query, so retrieve and pack them
        # once per vertex and serve every horizon from one stack (one
        # row per horizon over the same plan).
        matches = matcher.find_matches(
            query,
            ingestor.stream_id,
            threshold=config.threshold,
            max_matches=config.max_matches,
            restrict_patients=config.restrict_patients,
        )
        plan = predictor.build_plan(query, matches)
        served, _, positions = PlanStack(
            [plan] * len(horizons), [config.min_matches] * len(horizons)
        ).serve(horizons)
        now = query.last_vertex.time
        n_opportunities += len(horizons)
        for k, horizon in enumerate(config.horizons):
            if served[k]:
                n_predictions += 1
                pending.append((horizon, now + horizon, positions[k]))

    ingestor.finish()
    series = ingestor.series

    errors_by_horizon: dict[float, list[float]] = {
        h: [] for h in config.horizons
    }
    for horizon, target_time, predicted in pending:
        if target_time > series.end_time:
            continue
        actual = series.position_at(target_time)
        error = float(np.linalg.norm(predicted - actual))
        errors_by_horizon[horizon].append(error)

    stream_id = ingestor.stream_id
    if not keep_stream:
        db.remove_stream(stream_id)

    return ReplayResult(
        stream_id=stream_id,
        errors_by_horizon=errors_by_horizon,
        n_opportunities=n_opportunities,
        n_predictions=n_predictions,
        query_lengths=query_lengths,
    )


def replay_session_baseline(
    raw: RawStream,
    predictor,
    config: ReplayConfig | None = None,
) -> ReplayResult:
    """Replay a session with a no-database baseline predictor.

    Same protocol and scoring as :func:`replay_session`, but the predictor
    sees only the live PLR (``predictor.predict(series, horizon)``) — used
    to compare the paper's method against the classical predictors in
    ``repro.baselines.predictors``.
    """
    config = config or ReplayConfig()
    segmenter = OnlineSegmenter(config.segmenter)

    pending: list[tuple[float, float, np.ndarray]] = []
    n_opportunities = 0
    n_predictions = 0

    for t, position in raw.iter_points():
        committed = segmenter.add_point(t, position)
        if not committed or len(segmenter.series) < config.warmup_vertices:
            continue
        now = segmenter.series.end_time
        for horizon in config.horizons:
            n_opportunities += 1
            predicted = predictor.predict(segmenter.series, horizon)
            if predicted is None:
                continue
            n_predictions += 1
            pending.append((horizon, now + horizon, np.asarray(predicted)))

    segmenter.finish()
    series = segmenter.series

    errors_by_horizon: dict[float, list[float]] = {
        h: [] for h in config.horizons
    }
    for horizon, target_time, predicted in pending:
        if target_time > series.end_time:
            continue
        actual = series.position_at(target_time)
        errors_by_horizon[horizon].append(
            float(np.linalg.norm(predicted - actual))
        )

    return ReplayResult(
        stream_id=f"{raw.session_id}:baseline",
        errors_by_horizon=errors_by_horizon,
        n_opportunities=n_opportunities,
        n_predictions=n_predictions,
        query_lengths=[],
    )
