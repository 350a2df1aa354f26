"""Fleet-wide motif discovery over same-signature window groups.

A **motif** is a recurring window shape: a subsequence whose Definition 2
distance to many other windows of the fleet is within the match
threshold δ.  The brute-force algorithm (frozen as
:func:`repro.testing.oracle.reference_motifs`) scores *every pair* of
windows — O(n²) distance calls.  This engine exploits condition 1 of the
paper's similarity measure instead: two windows are comparable **only
when their state signatures are identical**, so the pairwise pass runs
per signature group harvested from the index's posting buffers, and
every cross-group distance call (``inf`` by construction) is skipped
outright.  Within a group the distances are computed with the same
row-local vectorised reduction as the live matcher's
:func:`~repro.core.similarity.batch_distance`.

Offline analytics has no query perspective, so the pair distance is the
**provenance-free** Definition 2: source weights (``w_s``) are not
applied — a motif is a property of the pair, not of either window's
relation to a querying session.  Vertex recency weights and the other
``SimilarityParams`` knobs apply unchanged.

Matching semantics (frozen in the oracle; changes land there first):

* window ``b`` is a *non-trivial match* of window ``a`` iff
  ``D(a, b) <= threshold`` and not (same stream and
  ``|start_a - start_b| < exclusion_zone``) — with the default zone of 1
  only the self-match is trivial;
* motifs are reported iteratively: the window with the most live
  matches wins each round (ties broken by smallest ``(stream_id,
  start)``), its match set is reported with it, and the motif plus all
  its matches leave the pool — so reported match counts never increase;
* extraction stops below ``min_count`` live matches (or at
  ``max_motifs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.similarity import SimilarityParams, vertex_weights
from .harvest import IndexHarvest

__all__ = [
    "Motif",
    "build_match_adjacency",
    "discover_motifs",
    "extract_motifs",
    "fleet_motifs",
]

#: A window's identity in the fleet: ``(stream_id, start)``.
WindowKey = tuple[str, int]


@dataclass(frozen=True)
class Motif:
    """One discovered motif: a window and its non-trivial match set."""

    stream_id: str
    start: int
    n_vertices: int
    count: int
    matches: tuple[WindowKey, ...]

    @property
    def key(self) -> WindowKey:
        return (self.stream_id, self.start)


def build_match_adjacency(
    harvest,
    length: int,
    threshold: float | None = None,
    params: SimilarityParams | None = None,
    exclusion_zone: int = 1,
    telemetry=None,
) -> dict[WindowKey, list[WindowKey]]:
    """Non-trivial match lists for every window with at least one match.

    The adjacency is symmetric (the pair distance has no provenance
    term); windows with no match under ``threshold`` are simply absent —
    they are the *anomalies* (see :mod:`~repro.analytics.anomalies`).
    """
    params = params or SimilarityParams()
    if threshold is None:
        threshold = params.distance_threshold
    if length < 2:
        raise ValueError("motif length must be at least 2 vertices")
    if telemetry is None:
        return _adjacency_inner(harvest, length, threshold, params, exclusion_zone)
    with telemetry.span("analytics.motif"):
        adjacency = _adjacency_inner(
            harvest, length, threshold, params, exclusion_zone
        )
    telemetry.inc("analytics.matched_windows", len(adjacency))
    return adjacency


def _adjacency_inner(
    harvest, length, threshold, params, exclusion_zone
) -> dict[WindowKey, list[WindowKey]]:
    weights = vertex_weights(
        length - 1,
        params.vertex_base_weight if params.use_vertex_weights else 1.0,
    )
    weight_sum = weights.sum() if params.normalize_inner_sum else None
    w_a = params.amplitude_weight
    w_f = params.frequency_weight
    adjacency: dict[WindowKey, list[WindowKey]] = {}
    for group in harvest.groups(length):
        k = group.n_candidates
        if k < 2:
            continue
        amplitudes = group.amplitudes
        durations = group.durations
        starts = group.starts
        codes = group.codes
        names = group.names
        window_keys = [
            (str(names[c]), s) for c, s in zip(codes.tolist(), starts.tolist())
        ]
        for i in range(k):
            costs = w_a * np.abs(amplitudes - amplitudes[i]) + w_f * np.abs(
                durations - durations[i]
            )
            # Same row-local reduction as batch_distance: each row's
            # bits depend only on that row, never the batch height.
            distances = (costs * weights).sum(axis=1)
            if weight_sum is not None:
                distances = distances / weight_sum
            mask = distances <= threshold
            mask &= ~(
                (codes == codes[i])
                & (np.abs(starts - starts[i]) < exclusion_zone)
            )
            mask[i] = False
            hits = np.flatnonzero(mask)
            if hits.size:
                adjacency[window_keys[i]] = [window_keys[j] for j in hits]
    return adjacency


def extract_motifs(
    adjacency: dict[WindowKey, list[WindowKey]],
    length: int,
    min_count: int = 1,
    max_motifs: int | None = None,
) -> list[Motif]:
    """Canonical iterative motif extraction from a match adjacency.

    Deterministic and shared semantics with the frozen oracle: each
    round reports the live window with the most live matches (smallest
    ``(stream_id, start)`` on ties) and retires it together with its
    match set.
    """
    motifs: list[Motif] = []
    alive = set(adjacency)
    floor = max(min_count, 1)
    while max_motifs is None or len(motifs) < max_motifs:
        best_key: WindowKey | None = None
        best_set: tuple[WindowKey, ...] = ()
        for key in sorted(alive):
            live = tuple(sorted(m for m in adjacency[key] if m in alive))
            if best_key is None or len(live) > len(best_set):
                best_key, best_set = key, live
        if best_key is None or len(best_set) < floor:
            break
        motifs.append(
            Motif(
                stream_id=best_key[0],
                start=best_key[1],
                n_vertices=length,
                count=len(best_set),
                matches=best_set,
            )
        )
        alive.discard(best_key)
        alive.difference_update(best_set)
    return motifs


def discover_motifs(
    harvest,
    length: int,
    threshold: float | None = None,
    params: SimilarityParams | None = None,
    exclusion_zone: int = 1,
    min_count: int = 1,
    max_motifs: int | None = None,
    telemetry=None,
) -> list[Motif]:
    """Motif discovery over a harvest (index-accelerated end to end)."""
    adjacency = build_match_adjacency(
        harvest, length, threshold, params, exclusion_zone, telemetry
    )
    motifs = extract_motifs(adjacency, length, min_count, max_motifs)
    if telemetry is not None:
        telemetry.inc("analytics.motifs_found", len(motifs))
    return motifs


def fleet_motifs(
    database,
    length: int,
    index=None,
    threshold: float | None = None,
    params: SimilarityParams | None = None,
    exclusion_zone: int = 1,
    min_count: int = 1,
    max_motifs: int | None = None,
    telemetry=None,
) -> list[Motif]:
    """Motif discovery over a live database (convenience wrapper)."""
    return discover_motifs(
        IndexHarvest(database, index),
        length,
        threshold=threshold,
        params=params,
        exclusion_zone=exclusion_zone,
        min_count=min_count,
        max_motifs=max_motifs,
        telemetry=telemetry,
    )
