"""Differential oracle: frozen naive reference implementations.

The columnar candidate engine (radix-encoded signatures, strided window
views, top-k ``argpartition`` ranking) is fast precisely because it is
clever — and clever code is where silent wrongness hides.  This module
keeps a deliberately naive, *frozen* reference of the two load-bearing
algorithms:

* :func:`reference_matches` — Definition 2 retrieval as an O(n·m)
  pure-Python scan over every window of every stream, with the distance
  spelled out segment by segment.  No index, no numpy vectorisation, no
  top-k shortcuts: sort everything, truncate.
* :func:`reference_segment` — the online PLR segmentation replayed
  through a plain transliteration of the streaming algorithm (sliding
  least-squares slope recomputed from scratch each sample rather than via
  running sums).
* :func:`reference_motifs` / :func:`reference_anomalies` — offline fleet
  analytics as the brute-force all-pairs window scan: every pair of
  same-length windows scored with the provenance-free Definition 2
  distance, motifs extracted iteratively by live match count, anomalies
  as the windows with no non-trivial match at all.
* :func:`reference_prediction` — Section 4.3 prediction serving as a
  per-match Python loop: known-future filter, linear-scan interpolation
  of each match's own future, weighted re-anchored average.  The one
  serving kernel, :class:`~repro.core.prediction.PlanStack` (a fleet's
  rows, a solo session's or ``OnlinePredictor.predict``'s single row),
  must reproduce this **byte-identically** for every row — its
  reductions are sequential ``cumsum`` for exactly that reason, so the
  equivalence sweeps assert ``np.array_equal``, not closeness.

:func:`check_equivalence` is the single entry point both the chaos suite
and the hypothesis property tests call, so every future performance PR
inherits a ground-truth check against these references.

**Freeze contract:** these functions define the semantics.  When a perf
PR changes retrieval or segmentation behaviour *intentionally*, the
change must be made here first, in the naive spelling, and justified —
never by mirroring the optimised code.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from ..analytics.motifs import Motif
from ..core.fsm import FiniteStateAutomaton, respiratory_fsa
from ..core.matching import Match
from ..core.model import BreathingState, PLRSeries, Subsequence, Vertex
from ..core.query import warped_length_range
from ..core.segmentation import SegmenterConfig
from ..core.similarity import MatchMode, SimilarityParams, SourceRelation
from ..database.store import MotionDatabase

__all__ = [
    "EquivalenceError",
    "check_equivalence",
    "check_plr_invariants",
    "reference_anomalies",
    "reference_distance",
    "reference_distance_normalized",
    "reference_distance_warped",
    "reference_matches",
    "reference_matches_for_mode",
    "reference_matches_normalized",
    "reference_matches_warped",
    "reference_motifs",
    "reference_prediction",
    "reference_segment",
]


class EquivalenceError(AssertionError):
    """The engine under test disagrees with the frozen reference."""


# -- reference matcher ---------------------------------------------------------


def _reference_vertex_weight(i: int, n_segments: int, base: float) -> float:
    """``w_i``: ``base`` at the oldest segment, 1.0 at the newest."""
    if n_segments == 1:
        return 1.0
    return base + (1.0 - base) * i / (n_segments - 1)


def reference_distance(
    query: Subsequence,
    candidate: Subsequence,
    params: SimilarityParams | None = None,
    relation: SourceRelation = SourceRelation.SAME_SESSION,
) -> float:
    """Definition 2 distance, one segment at a time in plain Python.

    Returns ``math.inf`` for incomparable pairs (different signatures).
    """
    params = params or SimilarityParams()
    if query.state_signature != candidate.state_signature:
        return math.inf
    n_segments = query.n_segments
    base_weight = (
        params.vertex_base_weight if params.use_vertex_weights else 1.0
    )
    q_amp = [float(a) for a in query.amplitudes]
    q_dur = [float(d) for d in query.durations]
    c_amp = [float(a) for a in candidate.amplitudes]
    c_dur = [float(d) for d in candidate.durations]
    total = 0.0
    weight_sum = 0.0
    for i in range(n_segments):
        w_i = _reference_vertex_weight(i, n_segments, base_weight)
        cost = params.amplitude_weight * abs(
            q_amp[i] - c_amp[i]
        ) + params.frequency_weight * abs(q_dur[i] - c_dur[i])
        total += w_i * cost
        weight_sum += w_i
    if params.normalize_inner_sum:
        total /= weight_sum
    if not params.use_source_weights:
        return total
    w_s = params.source_weight(relation)
    return total * w_s if params.source_weight_multiplies else total / w_s


def reference_matches(
    database: MotionDatabase,
    query: Subsequence,
    query_stream_id: str | None = None,
    threshold: float | None = None,
    max_matches: int | None = None,
    restrict_patients: Iterable[str] | None = None,
    params: SimilarityParams | None = None,
) -> list[Match]:
    """Definition 2 retrieval by exhaustive O(n·m) scan (no index).

    Mirrors the :class:`~repro.core.matching.SubsequenceMatcher` contract
    exactly: same-stream windows overlapping the query are excluded,
    ordering is ``(distance, stream_id, start)`` and ``max_matches``
    truncates the fully sorted list.
    """
    params = params or SimilarityParams()
    if threshold is None:
        threshold = params.distance_threshold
    allowed = None if restrict_patients is None else set(restrict_patients)
    m = query.n_vertices
    signature = query.state_signature

    scored: list[Match] = []
    for record in database.iter_streams():
        if allowed is not None and record.patient_id not in allowed:
            continue
        series = record.series
        if query_stream_id is None:
            relation = SourceRelation.OTHER_PATIENT
        else:
            relation = database.relation(query_stream_id, record.stream_id)
        for start in range(len(series) - m + 1):
            candidate = series.subsequence(start, start + m)
            if candidate.state_signature != signature:
                continue
            if (
                record.stream_id == query_stream_id
                and start < query.stop
                and start + m > query.start
            ):
                continue  # own-stream overlap: no usable future
            distance = reference_distance(query, candidate, params, relation)
            if distance <= threshold:
                scored.append(
                    Match(
                        stream_id=record.stream_id,
                        start=start,
                        n_vertices=m,
                        distance=distance,
                        relation=relation,
                    )
                )
    scored.sort(key=lambda match: (match.distance, match.stream_id, match.start))
    if max_matches is not None:
        scored = scored[:max_matches]
    return scored


# -- reference match modes -----------------------------------------------------
#
# The pluggable match modes keep the same freeze discipline as the rigid
# matcher: each mode's semantics are *defined* by the naive spelling
# below, and the vectorised engine must reproduce it.  Changes to mode
# behaviour land here first.


def _reference_znorm(values: Sequence[float]) -> list[float]:
    """Z-normalize one amplitude vector in plain Python (``ddof=0``).

    A constant vector normalizes to all zeros — its shape carries no
    information — matching :func:`repro.core.similarity.znorm_rows`.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        return []
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    if std == 0.0:
        return [0.0] * n
    return [(v - mean) / std for v in values]


def reference_distance_normalized(
    query: Subsequence,
    candidate: Subsequence,
    params: SimilarityParams | None = None,
    relation: SourceRelation = SourceRelation.SAME_SESSION,
) -> float:
    """The amplitude/offset-normalized distance, one segment at a time.

    Identical to :func:`reference_distance` except both windows'
    amplitude vectors are z-normalized (each against its own mean and
    population std) before the per-segment L1.  Durations stay raw, and
    condition 1 is unchanged: different signatures are incomparable.
    """
    params = params or SimilarityParams()
    if query.state_signature != candidate.state_signature:
        return math.inf
    n_segments = query.n_segments
    base_weight = (
        params.vertex_base_weight if params.use_vertex_weights else 1.0
    )
    q_amp = _reference_znorm(query.amplitudes)
    c_amp = _reference_znorm(candidate.amplitudes)
    q_dur = [float(d) for d in query.durations]
    c_dur = [float(d) for d in candidate.durations]
    total = 0.0
    weight_sum = 0.0
    for i in range(n_segments):
        w_i = _reference_vertex_weight(i, n_segments, base_weight)
        cost = params.amplitude_weight * abs(
            q_amp[i] - c_amp[i]
        ) + params.frequency_weight * abs(q_dur[i] - c_dur[i])
        total += w_i * cost
        weight_sum += w_i
    if params.normalize_inner_sum:
        total /= weight_sum
    if not params.use_source_weights:
        return total
    w_s = params.source_weight(relation)
    return total * w_s if params.source_weight_multiplies else total / w_s


def reference_distance_warped(
    query: Subsequence,
    candidate: Subsequence,
    params: SimilarityParams | None = None,
    relation: SourceRelation = SourceRelation.SAME_SESSION,
) -> float:
    """Banded DTW over PLR segments, as a plain-Python DP.

    Query segment ``i`` may align with candidate segment ``j`` only when
    ``|i - j| <= warp_band`` (strict Sakoe-Chiba; the band is *not*
    widened for unequal lengths) and the two segments share a state —
    mismatched states cost ``inf``.  Cell cost is
    ``w_i * (w_a*|dA| + w_f*|dT|)`` with the recency ramp taken from the
    query side.  Returns ``math.inf`` when no within-band,
    state-consistent alignment exists.  With ``warp_band=0`` only the
    diagonal path is legal and the distance equals
    :func:`reference_distance` exactly.
    """
    params = params or SimilarityParams()
    nq = query.n_segments
    nc = candidate.n_segments
    band = params.warp_band
    if nq < 1 or nc < 1 or abs(nq - nc) > band:
        return math.inf
    base_weight = (
        params.vertex_base_weight if params.use_vertex_weights else 1.0
    )
    q_states = [int(s) for s in query.segment_states]
    c_states = [int(s) for s in candidate.segment_states]
    q_amp = [float(a) for a in query.amplitudes]
    q_dur = [float(d) for d in query.durations]
    c_amp = [float(a) for a in candidate.amplitudes]
    c_dur = [float(d) for d in candidate.durations]

    acc = [[math.inf] * (nc + 1) for _ in range(nq + 1)]
    acc[0][0] = 0.0
    for i in range(1, nq + 1):
        w_i = _reference_vertex_weight(i - 1, nq, base_weight)
        for j in range(max(1, i - band), min(nc, i + band) + 1):
            if q_states[i - 1] != c_states[j - 1]:
                continue  # mismatched states: cell stays inf
            cost = w_i * (
                params.amplitude_weight * abs(q_amp[i - 1] - c_amp[j - 1])
                + params.frequency_weight * abs(q_dur[i - 1] - c_dur[j - 1])
            )
            best = min(acc[i - 1][j], acc[i][j - 1], acc[i - 1][j - 1])
            acc[i][j] = cost + best

    total = acc[nq][nc]
    if math.isinf(total):
        return math.inf
    if params.normalize_inner_sum:
        weight_sum = sum(
            _reference_vertex_weight(i, nq, base_weight) for i in range(nq)
        )
        total /= weight_sum
    if not params.use_source_weights:
        return total
    w_s = params.source_weight(relation)
    return total * w_s if params.source_weight_multiplies else total / w_s


def reference_matches_normalized(
    database: MotionDatabase,
    query: Subsequence,
    query_stream_id: str | None = None,
    threshold: float | None = None,
    max_matches: int | None = None,
    restrict_patients: Iterable[str] | None = None,
    params: SimilarityParams | None = None,
) -> list[Match]:
    """Normalized-mode retrieval by exhaustive scan (no index).

    Same candidate universe as :func:`reference_matches` — exact-length
    windows with the query's signature, own-stream overlaps excluded —
    scored with :func:`reference_distance_normalized` and sorted by the
    canonical ``(distance, stream_id, start, n_vertices)`` order.
    """
    params = params or SimilarityParams()
    if threshold is None:
        threshold = params.distance_threshold
    allowed = None if restrict_patients is None else set(restrict_patients)
    m = query.n_vertices
    signature = query.state_signature

    scored: list[Match] = []
    for record in database.iter_streams():
        if allowed is not None and record.patient_id not in allowed:
            continue
        series = record.series
        if query_stream_id is None:
            relation = SourceRelation.OTHER_PATIENT
        else:
            relation = database.relation(query_stream_id, record.stream_id)
        for start in range(len(series) - m + 1):
            candidate = series.subsequence(start, start + m)
            if candidate.state_signature != signature:
                continue
            if (
                record.stream_id == query_stream_id
                and start < query.stop
                and start + m > query.start
            ):
                continue  # own-stream overlap: no usable future
            distance = reference_distance_normalized(
                query, candidate, params, relation
            )
            if distance <= threshold:
                scored.append(
                    Match(
                        stream_id=record.stream_id,
                        start=start,
                        n_vertices=m,
                        distance=distance,
                        relation=relation,
                    )
                )
    scored.sort(
        key=lambda match: (
            match.distance, match.stream_id, match.start, match.n_vertices,
        )
    )
    if max_matches is not None:
        scored = scored[:max_matches]
    return scored


def reference_matches_warped(
    database: MotionDatabase,
    query: Subsequence,
    query_stream_id: str | None = None,
    threshold: float | None = None,
    max_matches: int | None = None,
    restrict_patients: Iterable[str] | None = None,
    params: SimilarityParams | None = None,
) -> list[Match]:
    """Warped-mode retrieval by exhaustive scan over *every* window of
    every admissible length (no index, no coarse pre-filter).

    Candidate lengths come from
    :func:`~repro.core.query.warped_length_range`; every window of each
    length is scored with :func:`reference_distance_warped` and
    non-finite distances (no within-band alignment) are dropped.
    Own-stream overlap uses the *candidate's* extent, since warped
    matches may be shorter or longer than the query.  Ordering is the
    canonical ``(distance, stream_id, start, n_vertices)`` — the length
    component matters here because windows at one start can match at
    several lengths.
    """
    params = params or SimilarityParams()
    if threshold is None:
        threshold = params.distance_threshold
    allowed = None if restrict_patients is None else set(restrict_patients)
    m = query.n_vertices
    if m < 2:
        return []

    scored: list[Match] = []
    for record in database.iter_streams():
        if allowed is not None and record.patient_id not in allowed:
            continue
        series = record.series
        if query_stream_id is None:
            relation = SourceRelation.OTHER_PATIENT
        else:
            relation = database.relation(query_stream_id, record.stream_id)
        for length in warped_length_range(m, params.warp_band):
            for start in range(len(series) - length + 1):
                if (
                    record.stream_id == query_stream_id
                    and start < query.stop
                    and start + length > query.start
                ):
                    continue  # own-stream overlap: no usable future
                candidate = series.subsequence(start, start + length)
                distance = reference_distance_warped(
                    query, candidate, params, relation
                )
                if math.isinf(distance) or distance > threshold:
                    continue
                scored.append(
                    Match(
                        stream_id=record.stream_id,
                        start=start,
                        n_vertices=length,
                        distance=distance,
                        relation=relation,
                    )
                )
    scored.sort(
        key=lambda match: (
            match.distance, match.stream_id, match.start, match.n_vertices,
        )
    )
    if max_matches is not None:
        scored = scored[:max_matches]
    return scored


def reference_matches_for_mode(
    database: MotionDatabase,
    query: Subsequence,
    query_stream_id: str | None = None,
    threshold: float | None = None,
    max_matches: int | None = None,
    restrict_patients: Iterable[str] | None = None,
    params: SimilarityParams | None = None,
) -> list[Match]:
    """Dispatch to the frozen reference matching ``params.mode``."""
    params = params or SimilarityParams()
    if params.mode is MatchMode.NORMALIZED:
        reference = reference_matches_normalized
    elif params.mode is MatchMode.WARPED:
        reference = reference_matches_warped
    else:
        reference = reference_matches
    return reference(
        database,
        query,
        query_stream_id=query_stream_id,
        threshold=threshold,
        max_matches=max_matches,
        restrict_patients=restrict_patients,
        params=params,
    )


# -- reference fleet analytics -------------------------------------------------
#
# The offline motif/anomaly semantics are *defined* by the naive
# spelling below (the brute-force motif algorithm of SNIPPETS.md
# Snippet 1, transliterated to PLR windows): score every pair of
# fixed-length windows across the whole fleet with the Definition 2
# distance — O(n^2) distance calls, no index — count each window's
# non-trivial matches, and report motifs iteratively by descending live
# match count.  The index-accelerated engine in ``repro.analytics`` must
# reproduce the returned motif list and anomaly set identically.
#
# Offline pairs have no query perspective, so source weights are forced
# off: the pair distance is symmetric and provenance-free.


def _reference_window_adjacency(
    database: MotionDatabase,
    length: int,
    threshold: float,
    params: SimilarityParams,
    exclusion_zone: int,
) -> dict[tuple[str, int], list[tuple[str, int]]]:
    """Every window's non-trivial matches, by exhaustive all-pairs scan."""
    windows: list[tuple[str, int, Subsequence]] = []
    for record in database.iter_streams():
        series = record.series
        for start in range(len(series) - length + 1):
            windows.append(
                (
                    record.stream_id,
                    start,
                    series.subsequence(start, start + length),
                )
            )
    matches: dict[tuple[str, int], list[tuple[str, int]]] = {
        (stream_id, start): [] for stream_id, start, _ in windows
    }
    for i, (stream_a, start_a, sub_a) in enumerate(windows):
        for stream_b, start_b, sub_b in windows[i + 1 :]:
            if (
                stream_a == stream_b
                and abs(start_a - start_b) < exclusion_zone
            ):
                continue  # trivial match
            distance = reference_distance(sub_a, sub_b, params)
            if distance <= threshold:
                matches[(stream_a, start_a)].append((stream_b, start_b))
                matches[(stream_b, start_b)].append((stream_a, start_a))
    return matches


def reference_motifs(
    database: MotionDatabase,
    length: int,
    threshold: float | None = None,
    params: SimilarityParams | None = None,
    exclusion_zone: int = 1,
    min_count: int = 1,
    max_motifs: int | None = None,
) -> list[Motif]:
    """Brute-force fleet motif discovery (frozen; no index, O(n^2) pairs).

    Window ``b`` non-trivially matches window ``a`` iff their Definition
    2 distance (source weights off) is at most ``threshold`` and the two
    are not same-stream windows within ``exclusion_zone`` starts of each
    other (the default zone of 1 only excludes the self-match).  Motifs
    are extracted iteratively: the live window with the most live
    matches is reported each round — smallest ``(stream_id, start)`` on
    ties — then it and its match set leave the pool, so reported counts
    never increase.  Extraction stops below ``min_count`` matches.
    """
    params = replace(
        params or SimilarityParams(), use_source_weights=False
    )
    if threshold is None:
        threshold = params.distance_threshold
    matches = _reference_window_adjacency(
        database, length, threshold, params, exclusion_zone
    )
    motifs: list[Motif] = []
    alive = set(matches)
    floor = max(min_count, 1)
    while max_motifs is None or len(motifs) < max_motifs:
        best_key: tuple[str, int] | None = None
        best_set: tuple[tuple[str, int], ...] = ()
        for key in sorted(alive):
            live = tuple(sorted(m for m in matches[key] if m in alive))
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


def reference_anomalies(
    database: MotionDatabase,
    length: int,
    threshold: float | None = None,
    params: SimilarityParams | None = None,
    exclusion_zone: int = 1,
) -> list[tuple[str, int]]:
    """Windows with **no** non-trivial match under ``threshold`` (frozen).

    The dual of :func:`reference_motifs` over the same exhaustive
    all-pairs scan; returns anomalous ``(stream_id, start)`` keys in
    sorted order.  Streams shorter than ``length`` contribute no
    windows, and removed streams are not in the database's universe at
    all.
    """
    params = replace(
        params or SimilarityParams(), use_source_weights=False
    )
    if threshold is None:
        threshold = params.distance_threshold
    matches = _reference_window_adjacency(
        database, length, threshold, params, exclusion_zone
    )
    return sorted(key for key, found in matches.items() if not found)


# -- reference segmenter -------------------------------------------------------


def reference_segment(
    times: Sequence[float],
    values: np.ndarray,
    config: SegmenterConfig | None = None,
    fsa: FiniteStateAutomaton | None = None,
) -> PLRSeries:
    """Segment a complete raw signal with the frozen reference algorithm.

    A straight-line transliteration of the streaming segmenter: despike,
    EMA smoothing, sliding least-squares velocity (recomputed from the
    raw window each sample — O(n·w), no running sums), adaptive range
    and velocity scales, state proposal, debounce, plausibility gates
    and the FSA check.  Kept naive on purpose; see the module docstring
    for the freeze contract.
    """
    config = config or SegmenterConfig()
    fsa = fsa or respiratory_fsa()
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, np.newaxis]

    series = PLRSeries()
    last_time: float | None = None
    smoothed: np.ndarray | None = None
    raw_prev: np.ndarray | None = None
    window: list[tuple[float, float]] = []  # slope samples
    range_low: float | None = None
    range_high: float | None = None
    v_peak = 0.0

    current_state: BreathingState | None = None
    segment_start: tuple[float, np.ndarray] | None = None
    pending_state: BreathingState | None = None
    pending_since: float | None = None
    pending_position: np.ndarray | None = None

    def naive_slope() -> float:
        if len(window) < 2:
            return 0.0
        n = len(window)
        sum_t = sum(t for t, _ in window)
        sum_x = sum(x for _, x in window)
        sum_tt = sum(t * t for t, _ in window)
        sum_tx = sum(t * x for t, x in window)
        denom = n * sum_tt - sum_t * sum_t
        if denom <= 1e-12:
            return 0.0
        return (n * sum_tx - sum_t * sum_x) / denom

    def classify(x: float, velocity: float) -> BreathingState | None:
        if v_peak <= 1e-9:
            return None
        v_flat = config.flat_velocity_fraction * v_peak
        if velocity >= v_flat:
            return BreathingState.IN
        if velocity <= -v_flat:
            return BreathingState.EX
        if not config.flat_low_gate:
            return BreathingState.EOE
        span = (
            0.0
            if range_low is None or range_high is None
            else range_high - range_low
        )
        if span > 0.0 and range_low is not None:
            if x <= range_low + config.low_position_fraction * span:
                return BreathingState.EOE
        return current_state

    def apply_gates(t_cut: float, x_cut: np.ndarray) -> BreathingState:
        assert segment_start is not None and current_state is not None
        start_t, start_x = segment_start
        duration = t_cut - start_t
        amplitude = float(np.linalg.norm(x_cut - start_x))
        if (
            current_state == BreathingState.EOE
            and duration > config.max_eoe_duration
        ):
            return BreathingState.IRR
        if current_state in (BreathingState.IN, BreathingState.EX):
            span = (
                0.0
                if range_low is None or range_high is None
                else range_high - range_low
            )
            if span > 0.0 and amplitude < (
                config.min_cycle_amplitude_fraction * span
            ):
                return BreathingState.IRR
        return current_state

    for i, t in enumerate(times):
        t = float(t)
        position = values[i].astype(float)
        if last_time is not None and t <= last_time:
            raise ValueError(
                f"time {t} not after previous sample {last_time}"
            )

        dt = 0.0 if last_time is None else t - last_time
        # despike
        if raw_prev is None or dt <= 0.0:
            raw_prev = position.copy()
            clean = position
        else:
            max_step = config.spike_velocity * dt
            step = np.clip(position - raw_prev, -max_step, max_step)
            clean = raw_prev + step
            raw_prev = clean
        # smooth
        if smoothed is None or dt <= 0.0:
            smoothed = clean.copy()
        else:
            alpha = dt / (config.smoothing_seconds + dt)
            smoothed = smoothed + alpha * (clean - smoothed)
        last_time = t

        window.append((t, float(smoothed[0])))
        while window and t - window[0][0] > config.velocity_window:
            window.pop(0)
        # adaptive range
        x0 = float(smoothed[0])
        if range_low is None or range_high is None:
            range_low = range_high = x0
        else:
            relax = min(1.0, dt / config.range_decay_seconds)
            range_low = min(x0, range_low + relax * (x0 - range_low))
            range_high = max(x0, range_high - relax * (range_high - x0))
        velocity = naive_slope()
        relax = min(1.0, dt / config.range_decay_seconds)
        v_peak = max(abs(velocity), v_peak * (1.0 - relax))

        proposal = classify(x0, velocity)
        # debounce and commit
        if proposal is None:
            continue
        if current_state is None:
            current_state = proposal
            segment_start = (t, smoothed.copy())
            series.append(Vertex(t, tuple(smoothed), proposal))
            pending_state = pending_since = pending_position = None
            continue
        if proposal == current_state:
            pending_state = pending_since = pending_position = None
            continue
        if proposal != pending_state:
            pending_state = proposal
            pending_since = t
            pending_position = smoothed.copy()
        assert pending_since is not None
        if t - pending_since < config.min_state_duration:
            continue

        t_cut = pending_since
        x_cut = pending_position
        assert x_cut is not None
        closed_state = apply_gates(t_cut, x_cut)
        if closed_state != series[-1].state:
            last = series[-1]
            series.replace_last(Vertex(last.time, last.position, closed_state))
        proposed = pending_state
        assert proposed is not None
        if closed_state == fsa.irregular or fsa.is_regular_transition(
            closed_state, proposed
        ):
            new_state = proposed
        else:
            new_state = BreathingState.IRR
        if t_cut <= series[-1].time:
            current_state = new_state
            segment_start = (series[-1].time, x_cut.copy())
        else:
            series.append(Vertex(t_cut, tuple(x_cut), new_state))
            current_state = new_state
            segment_start = (t_cut, x_cut.copy())
        pending_state = pending_since = pending_position = None

    # trailing open segment (the streaming `finish()`)
    if (
        current_state is not None
        and last_time is not None
        and smoothed is not None
        and not (series and last_time <= series[-1].time)
    ):
        series.append(Vertex(last_time, tuple(smoothed), current_state))
    return series


# -- reference predictor -------------------------------------------------------


def _reference_position_at(series: PLRSeries, t: float) -> list[float]:
    """The PLR polyline position at ``t`` by linear scan (no searchsorted).

    Clamps to the first/last vertex outside the covered span, exactly
    like :meth:`~repro.core.model.PLRSeries.position_at`.
    """
    times = [float(x) for x in series.times]
    positions = series.positions
    if t <= times[0]:
        return [float(x) for x in positions[0]]
    if t >= times[-1]:
        return [float(x) for x in positions[-1]]
    i = 0
    while i + 1 < len(times) and times[i + 1] <= t:
        i += 1
    p0 = [float(x) for x in positions[i]]
    if not times[i + 1] > times[i]:
        return p0
    alpha = (t - times[i]) / (times[i + 1] - times[i])
    p1 = [float(x) for x in positions[i + 1]]
    return [p0[c] + alpha * (p1[c] - p0[c]) for c in range(len(p0))]


def reference_prediction(
    database: MotionDatabase,
    query: Subsequence,
    matches: Sequence[Match],
    horizon: float,
    params: SimilarityParams | None = None,
    min_matches: int = 1,
    anchor: str = "last",
    distance_weighted: bool = False,
) -> np.ndarray | None:
    """Section 4.3 prediction serving, one match at a time in plain Python.

    Filters to matches whose stream records a future ``horizon`` past the
    match ("the immediate future of a historical subsequence is known"),
    declines (returns ``None``) below ``min_matches``, then averages the
    matches' re-anchored futures:

        predicted = q_anchor + sum_j w_j (v_j(h) - r_j) / sum_j w_j

    The arithmetic is ordinary IEEE doubles in match order, which is what
    the vectorised plan engine reproduces byte-for-byte.
    """
    params = params or SimilarityParams()
    usable = []
    for match in matches:
        series = database.stream(match.stream_id).series
        end_index = match.start + match.n_vertices - 1
        end_time = float(series.times[end_index])
        if end_time + horizon <= float(series.times[-1]):
            usable.append((match, series, end_index, end_time))
    if len(usable) < max(min_matches, 1):
        return None
    if anchor == "last":
        anchor_position = [float(x) for x in query.last_vertex.position]
    else:
        anchor_position = [float(x) for x in query.first_vertex.position]
    ndim = len(anchor_position)
    total = [0.0] * ndim
    total_weight = 0.0
    for match, series, end_index, end_time in usable:
        future = _reference_position_at(series, end_time + horizon)
        if anchor == "last":
            reference = [float(x) for x in series.positions[end_index]]
        else:
            reference = [float(x) for x in series.positions[match.start]]
        weight = float(params.source_weight(match.relation))
        if distance_weighted:
            weight /= 1.0 + match.distance
        for c in range(ndim):
            total[c] += weight * (future[c] - reference[c])
        total_weight += weight
    return np.asarray(
        [anchor_position[c] + total[c] / total_weight for c in range(ndim)]
    )


# -- equivalence entry points --------------------------------------------------


def check_plr_invariants(
    series: PLRSeries, fsa: FiniteStateAutomaton | None = None
) -> None:
    """Structural invariants every recovered or degraded PLR must hold.

    Raises :class:`EquivalenceError` on violation: non-monotone vertex
    times, non-finite geometry, states outside the alphabet, or an
    illegal FSA transition sequence.  A trailing same-state vertex is
    allowed — ``finish()`` closes the open segment with a terminal
    vertex repeating the segment's state.
    """
    fsa = fsa or respiratory_fsa()
    times = series.times
    if len(times) and not np.all(np.isfinite(times)):
        raise EquivalenceError("non-finite vertex times")
    if np.any(np.diff(times) <= 0):
        raise EquivalenceError("vertex times are not strictly increasing")
    if len(series) and not np.all(np.isfinite(series.positions)):
        raise EquivalenceError("non-finite vertex positions")
    states = [BreathingState(int(s)) for s in series.states]
    if len(states) >= 2 and states[-1] == states[-2]:
        states = states[:-1]
    if not fsa.validate_sequence(states):
        raise EquivalenceError("state sequence breaks the automaton")


def check_equivalence(
    engine_matches: Sequence[Match],
    oracle_matches: Sequence[Match],
    max_matches: int | None = None,
    tol: float = 1e-8,
) -> None:
    """Assert the engine's retrieval agrees with the frozen reference.

    Checks, in order:

    1. the retrieved ``(stream_id, start, n_vertices)`` identity sets are
       equal (modulo ``max_matches`` boundary ties, where only the
       distance multiset is compared);
    2. per-candidate distances agree within ``tol`` (the engine computes
       them vectorised, the oracle sequentially — bit equality is not
       guaranteed across summation orders);
    3. the engine's ordering is non-decreasing under the oracle's
       distances (within ``tol``).

    Raises :class:`EquivalenceError` with a diff on the first violation.
    """
    oracle_by_key = {
        (m.stream_id, m.start, m.n_vertices): m for m in oracle_matches
    }
    engine_keys = [
        (m.stream_id, m.start, m.n_vertices) for m in engine_matches
    ]
    if len(set(engine_keys)) != len(engine_keys):
        raise EquivalenceError(f"engine returned duplicate matches: {engine_keys}")

    if max_matches is None:
        missing = set(oracle_by_key) - set(engine_keys)
        extra = set(engine_keys) - set(oracle_by_key)
        if missing or extra:
            raise EquivalenceError(
                f"match identity sets differ: engine missed {sorted(missing)}, "
                f"engine invented {sorted(extra)}"
            )
    else:
        if len(engine_matches) != len(oracle_matches):
            raise EquivalenceError(
                f"top-k sizes differ: engine {len(engine_matches)}, "
                f"oracle {len(oracle_matches)}"
            )
        engine_distances = sorted(m.distance for m in engine_matches)
        oracle_distances = sorted(m.distance for m in oracle_matches)
        for d_e, d_o in zip(engine_distances, oracle_distances):
            if not math.isclose(d_e, d_o, rel_tol=tol, abs_tol=tol):
                raise EquivalenceError(
                    f"top-k distance multisets differ: {d_e} vs {d_o}"
                )

    previous = -math.inf
    for match in engine_matches:
        key = (match.stream_id, match.start, match.n_vertices)
        oracle_match = oracle_by_key.get(key)
        if oracle_match is not None:
            if not math.isclose(
                match.distance, oracle_match.distance, rel_tol=tol, abs_tol=tol
            ):
                raise EquivalenceError(
                    f"distance mismatch at {key}: engine {match.distance}, "
                    f"oracle {oracle_match.distance}"
                )
            if oracle_match.relation is not match.relation:
                raise EquivalenceError(
                    f"relation mismatch at {key}: engine {match.relation}, "
                    f"oracle {oracle_match.relation}"
                )
        if match.distance < previous - tol:
            raise EquivalenceError(
                f"engine ordering not non-decreasing at {key}"
            )
        previous = match.distance
