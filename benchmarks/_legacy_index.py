"""Frozen copy of the pre-columnar candidate-generation engine.

This module preserves, verbatim in behaviour, the original per-window
Python-loop implementation of :class:`StateSignatureIndex` (tuple
signature keys, per-row ``.copy()``, list-append postings re-``vstack``-ed
on every stack) and the original per-window linear scan.  It exists only
so ``bench_index_scaling.py`` can measure the columnar engine against the
exact code it replaced and assert byte-identical match results.  Do not
use it outside the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LegacyCandidates", "LegacyStateSignatureIndex", "legacy_scan"]


@dataclass(frozen=True)
class LegacyCandidates:
    """The frozen engine's candidate set: one stream id per window, no
    interning."""

    stream_ids: np.ndarray
    starts: np.ndarray
    amplitudes: np.ndarray
    durations: np.ndarray

    @property
    def n_candidates(self) -> int:
        return len(self.starts)


class _LegacyPostings:
    """Growable posting list for one signature, with cached stacking."""

    def __init__(self, n_segments: int) -> None:
        self.n_segments = n_segments
        self.stream_ids: list[str] = []
        self.starts: list[int] = []
        self.amp_rows: list[np.ndarray] = []
        self.dur_rows: list[np.ndarray] = []
        self._stacked: LegacyCandidates | None = None

    def append(
        self,
        stream_id: str,
        start: int,
        amplitudes: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        self.stream_ids.append(stream_id)
        self.starts.append(start)
        self.amp_rows.append(amplitudes)
        self.dur_rows.append(durations)
        self._stacked = None

    def stacked(self) -> LegacyCandidates:
        if self._stacked is None:
            self._stacked = LegacyCandidates(
                stream_ids=np.asarray(self.stream_ids, dtype=object),
                starts=np.asarray(self.starts, dtype=int),
                amplitudes=np.vstack(self.amp_rows),
                durations=np.vstack(self.dur_rows),
            )
        return self._stacked


class _LegacyLengthIndex:
    """Postings for all windows of one vertex count."""

    def __init__(self, n_vertices: int) -> None:
        self.n_vertices = n_vertices
        self.postings: dict[tuple[int, ...], _LegacyPostings] = {}
        self._next_start: dict[str, int] = {}

    @property
    def indexed_streams(self) -> tuple[str, ...]:
        return tuple(self._next_start)

    def catch_up(self, stream_id: str, series) -> None:
        m = self.n_vertices
        last = len(series) - m
        start = self._next_start.get(stream_id, 0)
        if last < start:
            return
        states = series.states
        amplitudes = series.amplitudes
        durations = series.durations
        for s in range(start, last + 1):
            signature = tuple(int(x) for x in states[s : s + m - 1])
            posting = self.postings.get(signature)
            if posting is None:
                posting = _LegacyPostings(m - 1)
                self.postings[signature] = posting
            posting.append(
                stream_id,
                s,
                amplitudes[s : s + m - 1].copy(),
                durations[s : s + m - 1].copy(),
            )
        self._next_start[stream_id] = last + 1


class LegacyStateSignatureIndex:
    """The pre-PR signature index: tuple keys, per-window Python loop."""

    def __init__(self, database) -> None:
        self.database = database
        self._by_length: dict[int, _LegacyLengthIndex] = {}

    def candidates(self, signature) -> LegacyCandidates | None:
        n_vertices = len(signature) + 1
        length_index = self._by_length.get(n_vertices)
        if length_index is not None and any(
            stream_id not in self.database
            for stream_id in length_index.indexed_streams
        ):
            length_index = None
        if length_index is None:
            length_index = _LegacyLengthIndex(n_vertices)
            self._by_length[n_vertices] = length_index
        for record in self.database.iter_streams():
            length_index.catch_up(record.stream_id, record.series)
        posting = length_index.postings.get(tuple(int(s) for s in signature))
        if posting is None or not posting.starts:
            return None
        return posting.stacked()

    @property
    def indexed_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_length))

    def n_postings(self, n_vertices: int) -> int:
        length_index = self._by_length.get(n_vertices)
        return 0 if length_index is None else len(length_index.postings)


def legacy_scan(database, query) -> LegacyCandidates | None:
    """The pre-PR per-window linear scan over every stream."""
    signature = np.asarray(query.state_signature, dtype=np.int8)
    m = query.n_vertices
    stream_ids: list[str] = []
    starts: list[int] = []
    amp_rows: list[np.ndarray] = []
    dur_rows: list[np.ndarray] = []
    for record in database.iter_streams():
        series = record.series
        if len(series) < m:
            continue
        states = series.states
        amplitudes = series.amplitudes
        durations = series.durations
        for s in range(len(series) - m + 1):
            if np.array_equal(states[s : s + m - 1], signature):
                stream_ids.append(record.stream_id)
                starts.append(s)
                amp_rows.append(amplitudes[s : s + m - 1])
                dur_rows.append(durations[s : s + m - 1])
    if not starts:
        return None
    return LegacyCandidates(
        stream_ids=np.asarray(stream_ids, dtype=object),
        starts=np.asarray(starts, dtype=int),
        amplitudes=np.vstack(amp_rows),
        durations=np.vstack(dur_rows),
    )
