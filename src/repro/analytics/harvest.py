"""Candidate-window sources for the batch analytics algorithms.

Motif discovery and anomaly scoring both consume the same shape of
input: the fleet's windows of one length, grouped by state signature
(only same-signature windows are comparable under Definition 2), plus
the per-stream vertex counts that define the window universe.  A
*harvest* provides exactly that, from either of two stores:

* :class:`IndexHarvest` — a live :class:`~repro.database.store.MotionDatabase`
  served through :meth:`StateSignatureIndex.posting_groups
  <repro.database.index.StateSignatureIndex.posting_groups>` (the index
  catches up first, so groups cover every committed window).
* :class:`SnapshotHarvest` — one or more read-only
  :class:`~repro.database.backend.SnapshotScan` handles (a solo
  directory, or every ``shard-*`` directory of a sharded root).  When
  the snapshot's mmap'd ``idx-*`` posting buffers fully cover the
  requested length they are served zero-copy; otherwise groups are
  recomputed from the mmap'd vertex columns.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..database.backend import SnapshotScan
from ..database.index import (
    CandidateSet,
    StateSignatureIndex,
    buffer_posting_groups,
    series_posting_groups,
)

__all__ = ["IndexHarvest", "SnapshotHarvest"]


class IndexHarvest:
    """Windows of a live database, grouped by the signature index."""

    def __init__(self, database, index: StateSignatureIndex | None = None):
        self.database = database
        self.index = index if index is not None else StateSignatureIndex(database)

    def stream_lengths(self) -> dict[str, int]:
        """Vertex count per stream, in insertion order."""
        return {
            record.stream_id: len(record.series)
            for record in self.database.iter_streams()
        }

    def groups(self, n_vertices: int) -> Iterator[CandidateSet]:
        """Same-signature groups at one window length, sorted-key order."""
        for _, candidates in self.index.posting_groups(n_vertices):
            yield candidates


class SnapshotHarvest:
    """Windows of one or more snapshot scans, grouped by signature.

    With several scans (the per-shard layout) stream ids must be
    disjoint; groups with the same signature are merged across scans so
    motif matching sees the whole fleet, not one shard at a time.  A
    merged group's intern table is the scans' tables end to end, each
    scan's codes offset past the tables before it, so every stream keeps
    one code.
    """

    def __init__(self, scans: SnapshotScan | Iterable[SnapshotScan]):
        if isinstance(scans, SnapshotScan):
            scans = [scans]
        self.scans: list[SnapshotScan] = list(scans)
        seen: set[str] = set()
        for scan in self.scans:
            for stream_id in scan.stream_ids:
                if stream_id in seen:
                    raise ValueError(
                        f"stream {stream_id!r} appears in more than one scan"
                    )
                seen.add(stream_id)

    @property
    def snapshot_ids(self) -> tuple[int, ...]:
        """The pinned snapshot generation per scan."""
        return tuple(scan.snapshot_id for scan in self.scans)

    def stream_lengths(self) -> dict[str, int]:
        """Vertex count per stream as of each scan's snapshot."""
        lengths: dict[str, int] = {}
        for scan in self.scans:
            for record in scan.iter_streams():
                lengths[record.stream_id] = len(record.series)
        return lengths

    def _buffers_cover(self, scan: SnapshotScan, n_vertices: int):
        """The scan's exported posting buffers for this length, if complete.

        The index is caught up lazily, so a snapshot's buffers can lag
        the vertex columns cut in the same compaction (windows committed
        after the last lookup of that length).  Serving a lagging buffer
        would silently drop windows from the analytics universe, so the
        ``next_start`` watermarks are checked against the snapshot
        series first; any shortfall falls back to a recompute from the
        vertex columns.
        """
        buffers = scan.index_buffers
        state = None if buffers is None else buffers.get(n_vertices)
        if state is None:
            return None
        next_start = dict(state["next_start"])
        for record in scan.iter_streams():
            expected = max(0, len(record.series) - n_vertices + 1)
            if int(next_start.get(record.stream_id, 0)) != expected:
                return None
        return state

    def _scan_groups(
        self, scan: SnapshotScan, n_vertices: int
    ) -> Iterator[tuple[int, CandidateSet]]:
        state = self._buffers_cover(scan, n_vertices)
        if state is not None:
            yield from buffer_posting_groups(state)
            return
        yield from series_posting_groups(
            ((r.stream_id, r.series) for r in scan.iter_streams()),
            n_vertices,
        )

    def groups(self, n_vertices: int) -> Iterator[CandidateSet]:
        """Fleet-wide same-signature groups, merged across scans."""
        if len(self.scans) == 1:
            for _, candidates in self._scan_groups(self.scans[0], n_vertices):
                yield candidates
            return
        by_key: dict[int, list[CandidateSet]] = {}
        for scan in self.scans:
            for key, candidates in self._scan_groups(scan, n_vertices):
                by_key.setdefault(key, []).append(candidates)
        for key in sorted(by_key):
            parts = by_key[key]
            if len(parts) == 1:
                yield parts[0]
                continue
            offsets = np.cumsum([0] + [len(p.names) for p in parts[:-1]])
            yield CandidateSet(
                codes=np.concatenate(
                    [p.codes + offset for p, offset in zip(parts, offsets)]
                ),
                names=np.concatenate([p.names for p in parts]),
                starts=np.concatenate([p.starts for p in parts]),
                amplitudes=np.concatenate([p.amplitudes for p in parts]),
                durations=np.concatenate([p.durations for p in parts]),
            )
