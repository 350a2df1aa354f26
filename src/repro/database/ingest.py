"""Streaming ingestion: raw samples -> live PLR in the database.

A :class:`StreamIngestor` owns an online segmenter whose output series *is*
the database stream record's series, so every committed vertex is visible
to matchers and the signature index immediately — the paper's online
scenario where the motion signal "is analyzed immediately for treatment
and also saved in a database for future study".

Commit fan-out happens here, in a fixed order per commit: first the
database's durability hook (a no-op for the in-memory backend, a journal
append for the logged one), then a ``vertex_committed`` /
``vertex_amended`` event on the session bus — so subscribers like the
chaos harness's log writer (attached with
:func:`~repro.service.wiring.attach_vertex_log`) observe commits right
after the durability hook, and injected crashes propagate through the
ingesting call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.model import PLRSeries, Vertex
from ..core.segmentation import OnlineSegmenter, SegmenterConfig
from ..events import EventBus
from .store import MotionDatabase

__all__ = ["StreamIngestor"]


class StreamIngestor:
    """Feeds one live session into the database through the segmenter.

    Parameters
    ----------
    database:
        Target store; the patient must already exist.
    patient_id, session_id:
        Identity of the live stream.
    config:
        Segmenter tuning.
    metadata:
        Annotations stored on the stream record.
    fsa:
        Optional state automaton override (Section 6 domains).
    events:
        Optional session :class:`~repro.events.EventBus`; commits publish
        ``vertex_committed`` (``stream_id``, ``vertices``) and gate
        re-labels publish ``vertex_amended`` (``stream_id``, ``vertex``).
    telemetry:
        Optional :class:`~repro.obs.Telemetry`, forwarded to the
        segmenter (point/vertex/state counters).
    """

    def __init__(
        self,
        database: MotionDatabase,
        patient_id: str,
        session_id: str,
        config: SegmenterConfig | None = None,
        metadata: dict | None = None,
        fsa=None,
        events: EventBus | None = None,
        telemetry=None,
    ) -> None:
        self.database = database
        self.events = events
        self.segmenter = OnlineSegmenter(config, fsa, telemetry=telemetry)
        self.segmenter.on_amend = self._on_amend
        self.record = database.add_stream(
            patient_id=patient_id,
            session_id=session_id,
            series=self.segmenter.series,
            metadata=metadata,
        )

    @property
    def stream_id(self) -> str:
        """Identifier of the live stream record."""
        return self.record.stream_id

    @property
    def series(self) -> PLRSeries:
        """The live PLR (shared with the stream record)."""
        return self.segmenter.series

    def _on_commit(self, committed: list[Vertex]) -> None:
        """Fan a batch of committed vertices out to every sink, in order."""
        self.database.commit_vertices(self.stream_id, committed)
        if self.events is not None:
            self.events.publish(
                "vertex_committed",
                stream_id=self.stream_id,
                vertices=tuple(committed),
            )

    def _on_amend(self, vertex: Vertex) -> None:
        """Segmenter gate re-label of the most recently committed vertex."""
        self.database.amend_vertex(self.stream_id, vertex)
        if self.events is not None:
            self.events.publish(
                "vertex_amended", stream_id=self.stream_id, vertex=vertex
            )

    def add_point(
        self, t: float, position: Sequence[float] | float
    ) -> list[Vertex]:
        """Ingest one raw sample; return vertices committed by it."""
        committed = self.segmenter.add_point(t, position)
        if committed:
            self._on_commit(committed)
        return committed

    def extend(self, times: Sequence[float], values: np.ndarray) -> list[Vertex]:
        """Ingest a batch of raw samples; return all committed vertices."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        committed: list[Vertex] = []
        for i, t in enumerate(times):
            committed.extend(self.add_point(float(t), values[i]))
        return committed

    def finish(self) -> list[Vertex]:
        """Close the trailing open segment at end of session."""
        closed = self.segmenter.finish()
        if closed:
            self._on_commit(closed)
        return closed
