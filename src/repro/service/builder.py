"""One place that turns configs into a pipeline.

Every entry point — the online session, the replay harness, the Section 6
framework, the CLI and the session service — used to hand-wire its own
ingestor + matcher + predictor stack with subtly duplicated constructor
calls.  :class:`PipelineBuilder` centralises that wiring: construct one
from any of the existing config objects
(:meth:`~PipelineBuilder.from_session_config`,
:meth:`~PipelineBuilder.from_replay_config`,
:meth:`~PipelineBuilder.from_domain`) and ask it for the components.

The builder is deliberately a *pure factory*: it holds only parameters,
never live state, so one builder can stamp out any number of pipelines
over any number of databases (the session service builds per-tenant
ingestors but shares a single matcher/index this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.matching import SubsequenceMatcher
from ..core.model import PLRSeries, Subsequence
from ..core.prediction import OnlinePredictor
from ..core.query import QueryConfig, generate_query
from ..core.segmentation import OnlineSegmenter, SegmenterConfig
from ..core.similarity import SimilarityParams
from ..database.ingest import StreamIngestor
from ..database.store import MotionDatabase
from ..events import EventBus

__all__ = ["Pipeline", "PipelineBuilder"]


@dataclass
class Pipeline:
    """One assembled analysis stack over a database.

    ``ingestor`` is ``None`` for query-only pipelines (no live stream).
    """

    database: MotionDatabase
    matcher: SubsequenceMatcher
    predictor: OnlinePredictor
    ingestor: StreamIngestor | None = None


@dataclass(frozen=True)
class PipelineBuilder:
    """Factory for ingestor / matcher / predictor stacks.

    Attributes mirror the union of the existing config surfaces:

    similarity / query / segmenter:
        The usual pipeline parameters (Table 1 defaults).
    use_index:
        Candidate-retrieval access path (signature index vs linear scan).
    min_matches / max_matches / anchor:
        Predictor retrieval settings; a negative ``max_matches`` raises
        :class:`ValueError`.
    fsa_factory:
        Zero-argument callable building a fresh finite state automaton
        per ingestor (Section 6 domains; ``None`` uses the respiratory
        default).  A factory rather than an instance because automata
        are stateful during segmentation.
    metadata:
        Annotations stamped on every stream record built by this
        builder (copied per stream).
    """

    similarity: SimilarityParams = field(default_factory=SimilarityParams)
    query: QueryConfig = field(default_factory=QueryConfig)
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    use_index: bool = True
    min_matches: int = 2
    max_matches: int | None = None
    anchor: str = "last"
    fsa_factory: Callable[[], Any] | None = None
    metadata: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.max_matches is not None and self.max_matches < 0:
            raise ValueError(
                f"max_matches must be None or >= 0, got {self.max_matches}"
            )

    # -- constructors from the existing config surfaces ------------------------

    @classmethod
    def from_session_config(cls, config) -> "PipelineBuilder":
        """Builder for an :class:`~repro.core.online.OnlineSessionConfig`."""
        return cls(
            similarity=config.similarity,
            query=config.query,
            segmenter=config.segmenter,
            min_matches=config.min_matches,
            max_matches=config.max_matches,
        )

    @classmethod
    def from_replay_config(cls, config) -> "PipelineBuilder":
        """Builder for a replay-style config.

        Duck-typed (reads ``similarity`` / ``query`` / ``segmenter`` /
        ``use_index`` / ``min_matches`` / ``max_matches`` / ``anchor``)
        so this module does not import the analysis layer.
        """
        return cls(
            similarity=config.similarity,
            query=config.query,
            segmenter=config.segmenter,
            use_index=config.use_index,
            min_matches=config.min_matches,
            max_matches=config.max_matches,
            anchor=config.anchor,
        )

    @classmethod
    def from_domain(cls, spec) -> "PipelineBuilder":
        """Builder for a Section 6 :class:`~repro.core.framework.DomainSpec`."""
        return cls(
            similarity=spec.similarity,
            query=spec.query,
            segmenter=spec.segmenter,
            fsa_factory=spec.fsa.copy,
            metadata={"domain": spec.name},
        )

    # -- component factories ----------------------------------------------------

    def build_matcher(
        self, database: MotionDatabase, injector=None, telemetry=None
    ) -> SubsequenceMatcher:
        """A matcher (and, by default, its signature index) over ``database``."""
        return SubsequenceMatcher(
            database,
            self.similarity,
            use_index=self.use_index,
            injector=injector,
            telemetry=telemetry,
        )

    def build_predictor(
        self, database: MotionDatabase, matcher: SubsequenceMatcher
    ) -> OnlinePredictor:
        """A predictor over ``matcher``'s retrievals."""
        return OnlinePredictor(
            database,
            matcher,
            min_matches=self.min_matches,
            max_matches=self.max_matches,
            anchor=self.anchor,
        )

    def build_segmenter(self, telemetry=None) -> OnlineSegmenter:
        """A fresh online segmenter under this builder's motion model."""
        fsa = self.fsa_factory() if self.fsa_factory is not None else None
        return OnlineSegmenter(self.segmenter, fsa, telemetry=telemetry)

    def build_ingestor(
        self,
        database: MotionDatabase,
        patient_id: str,
        session_id: str,
        vertex_log=None,
        events: EventBus | None = None,
        prefilter=None,
        telemetry=None,
    ) -> StreamIngestor:
        """A live-stream ingestor registered in ``database``."""
        ingestor = StreamIngestor(
            database,
            patient_id,
            session_id,
            self.segmenter,
            metadata=dict(self.metadata) if self.metadata is not None else None,
            fsa=self.fsa_factory() if self.fsa_factory is not None else None,
            vertex_log=vertex_log,
            events=events,
            telemetry=telemetry,
        )
        if prefilter is not None:
            ingestor.segmenter.prefilter = prefilter
        return ingestor

    def build(
        self,
        database: MotionDatabase,
        patient_id: str | None = None,
        session_id: str = "LIVE",
        vertex_log=None,
        events: EventBus | None = None,
        prefilter=None,
        injector=None,
        telemetry=None,
    ) -> Pipeline:
        """A full pipeline; pass ``patient_id`` to include a live ingestor."""
        matcher = self.build_matcher(
            database, injector=injector, telemetry=telemetry
        )
        predictor = self.build_predictor(database, matcher)
        ingestor = None
        if patient_id is not None:
            ingestor = self.build_ingestor(
                database,
                patient_id,
                session_id,
                vertex_log=vertex_log,
                events=events,
                prefilter=prefilter,
                telemetry=telemetry,
            )
        return Pipeline(
            database=database,
            matcher=matcher,
            predictor=predictor,
            ingestor=ingestor,
        )

    def make_query(self, series: PLRSeries) -> Subsequence | None:
        """The dynamic query over a series under this builder's settings."""
        return generate_query(series, self.query)
