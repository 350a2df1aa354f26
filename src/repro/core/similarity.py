"""The subsequence similarity measure (Definition 2).

Two subsequences are comparable only when their state signatures are
identical (condition 1 — "similar subsequences must have the same
meaning").  The distance between comparable subsequences is a model-based,
multi-layer, weighted, parametric function of their per-segment amplitude
and duration differences (condition 2):

    D(P, Q) = ( sum_i  w_i * (w_a * |dA_i| + w_f * |dT_i|) ) / w_s

where

* ``w_a`` / ``w_f`` trade amplitude against frequency importance
  (``w_a >= w_f`` always, per Section 4.2),
* ``w_i`` ramps linearly from ``w_v`` at the oldest segment to 1.0 at the
  most recent segment (online recency weighting; the offline variant sets
  all ``w_i = 1``),
* ``w_s`` is the source-stream weight: 1.0 for candidates from the query's
  own session, 0.9 for other sessions of the same patient, 0.3 for other
  patients.

Interpretation notes (the source text's formula is typographically
damaged; both choices are ablated in ``benchmarks/bench_ablations.py``):

* The inner sum is a plain weighted sum over segments, as written.  With
  the Table 1 threshold ``delta = 8.0`` this is genuinely selective for
  typical query lengths (6-27 segments); a normalised per-segment-average
  variant is available as an ablation (``normalize_inner_sum``).
* ``w_s`` *divides* the distance.  Table 1 assigns the largest ``w_s`` to
  the most valuable source (same session); dividing makes those candidates
  *closer*, matching the prose, whereas multiplying would invert the
  stated preference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .model import Subsequence

__all__ = [
    "SourceRelation",
    "MatchMode",
    "SimilarityParams",
    "vertex_weights",
    "subsequence_distance",
    "batch_distance",
    "batch_distance_normalized",
    "batch_warped_distance",
    "znorm_rows",
]


class SourceRelation(enum.Enum):
    """Provenance of a candidate subsequence relative to the query."""

    SAME_SESSION = "same_session"
    SAME_PATIENT = "same_patient"
    OTHER_PATIENT = "other_patient"


class MatchMode(str, enum.Enum):
    """Which similarity regime the matcher runs under.

    ``RIGID`` is the paper's Definition 2: identical state signatures,
    per-segment L1.  ``NORMALIZED`` z-normalizes each window's amplitude
    vector before the L1 (KV-match style), so per-stream gain and
    baseline changes don't defeat retrieval.  ``WARPED`` replaces the
    positional alignment with banded DTW over segments (Sakoe-Chiba band
    of ``warp_band`` steps), relaxing the exact-state-sequence
    requirement to within-band warps.

    The ``str`` mixin makes the enum JSON-transparent: ``asdict`` +
    ``json.dumps`` emit the raw mode string and
    ``SimilarityParams(**payload)`` coerces it back (see
    ``__post_init__``), so the sharded wire protocol carries modes with
    no bespoke encoding.
    """

    RIGID = "rigid"
    NORMALIZED = "normalized"
    WARPED = "warped"


@dataclass(frozen=True)
class SimilarityParams:
    """Parameters of the Definition 2 distance (defaults from Table 1).

    Attributes
    ----------
    amplitude_weight:
        ``w_a`` — weight of per-segment amplitude differences (1.0).
    frequency_weight:
        ``w_f`` — weight of per-segment duration differences (0.25);
        always kept at most ``amplitude_weight``.
    vertex_base_weight:
        ``w_v`` — weight of the oldest segment; weights ramp linearly up to
        1.0 at the most recent segment (0.5).
    weight_same_session / weight_same_patient / weight_other_patient:
        ``w_s`` per source relation (1.0 / 0.9 / 0.3).
    distance_threshold:
        ``delta`` — candidates farther than this are not similar (8.0).
    use_vertex_weights / use_source_weights:
        Ablation switches for the Figure 6 weighting-factor experiment.
        Online distances use vertex weights; the offline distance
        (Section 5) disables them.
    source_weight_multiplies:
        Ablation: apply ``w_s`` multiplicatively (the literal reading the
        prose contradicts) instead of dividing.
    normalize_inner_sum:
        Ablation: divide the inner sum by the total vertex weight, making
        the distance a per-segment average.  The paper's formula is a plain
        weighted sum (the default); with ~6-27 segments per query that
        makes the threshold ``delta = 8.0`` genuinely selective.
    mode:
        Which :class:`MatchMode` the matcher runs under (default
        ``RIGID``).  String payloads (``"normalized"``) are coerced to
        the enum, so JSON round-trips reconstruct identical params.
    warp_band:
        Sakoe-Chiba band width, in segment steps, for ``WARPED`` mode
        (default 1).  Band 0 only admits the diagonal alignment and is
        exactly the rigid distance.  Ignored by the other modes.
    """

    amplitude_weight: float = 1.0
    frequency_weight: float = 0.25
    vertex_base_weight: float = 0.5
    weight_same_session: float = 1.0
    weight_same_patient: float = 0.9
    weight_other_patient: float = 0.3
    distance_threshold: float = 8.0
    use_vertex_weights: bool = True
    use_source_weights: bool = True
    source_weight_multiplies: bool = False
    normalize_inner_sum: bool = False
    mode: MatchMode = MatchMode.RIGID
    warp_band: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", MatchMode(self.mode))
        if not isinstance(self.warp_band, int) or self.warp_band < 0:
            raise ValueError("warp_band must be a non-negative integer")
        if self.amplitude_weight < 0 or self.frequency_weight < 0:
            raise ValueError("feature weights must be non-negative")
        if not 0 < self.vertex_base_weight <= 1.0:
            raise ValueError("vertex_base_weight must be in (0, 1]")
        for w in (
            self.weight_same_session,
            self.weight_same_patient,
            self.weight_other_patient,
        ):
            if not 0 < w <= 1.0:
                raise ValueError("source weights must be in (0, 1]")
        if self.distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive")

    def source_weight(self, relation: SourceRelation) -> float:
        """``w_s`` for a candidate with the given provenance."""
        if not self.use_source_weights:
            return 1.0
        if relation is SourceRelation.SAME_SESSION:
            return self.weight_same_session
        if relation is SourceRelation.SAME_PATIENT:
            return self.weight_same_patient
        return self.weight_other_patient

    def offline(self) -> "SimilarityParams":
        """The Section 5 offline variant: all vertex weights equal to 1."""
        return replace(self, use_vertex_weights=False)

    def unweighted(self) -> "SimilarityParams":
        """Fully unweighted ablation (Figure 6's "no weighting" baseline).

        Amplitude and frequency contribute equally and neither vertex
        recency nor source provenance is weighted.
        """
        return replace(
            self,
            amplitude_weight=1.0,
            frequency_weight=1.0,
            use_vertex_weights=False,
            use_source_weights=False,
        )


@lru_cache(maxsize=512)
def _vertex_weights_cached(n_segments: int, base: float) -> np.ndarray:
    if n_segments == 1:
        ramp = np.array([1.0])
    else:
        ramp = base + (1.0 - base) * np.arange(n_segments) / (n_segments - 1)
    ramp.setflags(write=False)
    return ramp


def vertex_weights(n_segments: int, base: float) -> np.ndarray:
    """The recency ramp ``w_i``: ``base`` at the oldest segment, 1.0 at the
    newest, linear in between.

    The ramp is memoised per ``(n_segments, base)`` — every distance call
    needs it, and query lengths cluster on a handful of values — and the
    returned array is **read-only** (all callers share one instance).

    Parameters
    ----------
    n_segments:
        Number of segments being weighted.
    base:
        ``w_v``, the weight of the oldest segment.
    """
    if n_segments <= 0:
        raise ValueError("n_segments must be positive")
    return _vertex_weights_cached(int(n_segments), float(base))


def _segment_costs(
    query: Subsequence, candidate: Subsequence, params: SimilarityParams
) -> np.ndarray:
    """Per-segment weighted amplitude/duration differences."""
    amp_diff = np.abs(query.amplitudes - candidate.amplitudes)
    dur_diff = np.abs(query.durations - candidate.durations)
    return (
        params.amplitude_weight * amp_diff
        + params.frequency_weight * dur_diff
    )


def subsequence_distance(
    query: Subsequence,
    candidate: Subsequence,
    params: SimilarityParams | None = None,
    relation: SourceRelation = SourceRelation.SAME_SESSION,
) -> float:
    """The Definition 2 distance between two subsequences.

    Returns ``math.inf`` when the state signatures differ (condition 1
    fails and the pair is incomparable).

    Parameters
    ----------
    query, candidate:
        Windows with the same number of vertices.
    params:
        Distance parameters (Table 1 defaults).
    relation:
        Provenance of ``candidate`` relative to ``query`` (selects ``w_s``).
    """
    params = params or SimilarityParams()
    if query.state_signature != candidate.state_signature:
        return math.inf

    costs = _segment_costs(query, candidate, params)
    # base = 1.0 degenerates the ramp to all-ones, so the unweighted
    # variant shares the same cached arrays.
    weights = vertex_weights(
        query.n_segments,
        params.vertex_base_weight if params.use_vertex_weights else 1.0,
    )
    base = float(np.dot(weights, costs))
    if params.normalize_inner_sum:
        base /= float(weights.sum())
    return _apply_source_weight(base, params.source_weight(relation), params)


def batch_distance(
    query: Subsequence,
    candidate_amplitudes: np.ndarray,
    candidate_durations: np.ndarray,
    source_weights: np.ndarray,
    params: SimilarityParams | None = None,
) -> np.ndarray:
    """Vectorised Definition 2 distance against many candidates at once.

    All candidates must share the query's state signature (the caller —
    normally the state-signature index — guarantees this).

    Parameters
    ----------
    query:
        The query window with ``m`` segments.
    candidate_amplitudes, candidate_durations:
        Arrays of shape ``(n_candidates, m)``.
    source_weights:
        ``w_s`` per candidate, shape ``(n_candidates,)``.
    params:
        Distance parameters.

    Returns
    -------
    numpy.ndarray
        Distances, shape ``(n_candidates,)``.
    """
    params = params or SimilarityParams()
    amp_diff = np.abs(candidate_amplitudes - query.amplitudes[np.newaxis, :])
    dur_diff = np.abs(candidate_durations - query.durations[np.newaxis, :])
    costs = (
        params.amplitude_weight * amp_diff
        + params.frequency_weight * dur_diff
    )
    weights = vertex_weights(
        query.n_segments,
        params.vertex_base_weight if params.use_vertex_weights else 1.0,
    )
    # Row-wise multiply + pairwise-sum instead of ``costs @ weights``:
    # BLAS gemv picks different accumulation orders depending on the
    # matrix *height*, so the same candidate row can yield different
    # bits when scored inside a different-sized batch.  Sharded serving
    # scores each shard's candidate subset separately and must merge
    # per-shard distances byte-identically with the single-process full
    # batch, so every row's reduction has to depend only on that row.
    base = (costs * weights).sum(axis=1)
    if params.normalize_inner_sum:
        base = base / weights.sum()
    if not params.use_source_weights:
        return base
    if params.source_weight_multiplies:
        return base * source_weights
    return base / source_weights


def _apply_source_weight(
    base: float, w_s: float, params: SimilarityParams
) -> float:
    """Fold the source weight into the base distance per the chosen reading."""
    if not params.use_source_weights:
        return base
    if params.source_weight_multiplies:
        return base * w_s
    return base / w_s


def znorm_rows(rows: np.ndarray) -> np.ndarray:
    """Z-normalize each row: subtract its mean, divide by its population
    standard deviation (``ddof=0``).  Constant rows normalize to all
    zeros rather than dividing by zero — a flat amplitude profile carries
    no shape information either way.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return rows.copy()
    mean = rows.mean(axis=-1, keepdims=True)
    std = rows.std(axis=-1, keepdims=True)
    safe = np.where(std > 0.0, std, 1.0)
    return np.where(std > 0.0, (rows - mean) / safe, 0.0)


def batch_distance_normalized(
    query: Subsequence,
    candidate_amplitudes: np.ndarray,
    candidate_durations: np.ndarray,
    source_weights: np.ndarray,
    params: SimilarityParams | None = None,
) -> np.ndarray:
    """The :data:`MatchMode.NORMALIZED` counterpart of :func:`batch_distance`.

    Amplitude vectors are z-normalized per window — separately for the
    query and for every candidate — before the L1, so the amplitude term
    compares *shape* and is invariant under per-stream affine rescaling
    ``a*x + b`` with ``a > 0`` (PLR amplitudes are displacement norms,
    so the offset ``b`` cancels and the gain ``a`` divides out of the
    z-score).  Durations are compared raw, and candidate generation is
    unchanged: signatures must still match exactly.
    """
    params = params or SimilarityParams()
    q_amps = znorm_rows(np.asarray(query.amplitudes, dtype=float))
    c_amps = znorm_rows(np.asarray(candidate_amplitudes, dtype=float))
    amp_diff = np.abs(c_amps - q_amps[np.newaxis, :])
    dur_diff = np.abs(candidate_durations - query.durations[np.newaxis, :])
    costs = (
        params.amplitude_weight * amp_diff
        + params.frequency_weight * dur_diff
    )
    weights = vertex_weights(
        query.n_segments,
        params.vertex_base_weight if params.use_vertex_weights else 1.0,
    )
    # Same row-local reduction contract as batch_distance (see above):
    # sharded per-shard batches must score byte-identically.
    base = (costs * weights).sum(axis=1)
    if params.normalize_inner_sum:
        base = base / weights.sum()
    if not params.use_source_weights:
        return base
    if params.source_weight_multiplies:
        return base * source_weights
    return base / source_weights


@lru_cache(maxsize=512)
def _warp_path_cells(
    query_states: tuple[int, ...], candidate_states: tuple[int, ...], band: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]] | None:
    """The alignment cells a banded warp of these state sequences can use.

    A cell ``(i, j)`` (1-based, pairing query segment ``i`` with
    candidate segment ``j``) is *live* when ``|i - j| <= band``, the two
    segment states are equal, and some monotone path of such cells leads
    from the origin ``(0, 0)`` through it to ``(nq, nc)``.  Every other
    cell of the DP is ``inf`` whatever the features or lies on no path
    to the end cell, so it never changes the end cell.

    Returns ``None`` when no live path exists.  Otherwise the live cells
    in DP order (rows ascending, columns ascending within a row) as
    0-based query and candidate segment indices, and per live cell the
    positions in that order of its live predecessors among ``(i-1, j)``,
    ``(i, j-1)`` and ``(i-1, j-1)``, in that order; ``-1`` stands for
    the origin, which only cell ``(1, 1)`` has.  Memoised: a group's
    state sequence recurs across queries, and sequences are short.
    """
    nq, nc = len(query_states), len(candidate_states)
    reached = {(0, 0)}
    forward = []
    for i in range(1, nq + 1):
        for j in range(max(1, i - band), min(nc, i + band) + 1):
            if query_states[i - 1] == candidate_states[j - 1] and (
                (i - 1, j) in reached
                or (i, j - 1) in reached
                or (i - 1, j - 1) in reached
            ):
                reached.add((i, j))
                forward.append((i, j))
    if (nq, nc) not in reached:
        return None
    live = {(nq, nc)}
    for i, j in reversed(forward):
        if (i + 1, j) in live or (i, j + 1) in live or (i + 1, j + 1) in live:
            live.add((i, j))
    cells = [cell for cell in forward if cell in live]
    position = {cell: k for k, cell in enumerate(cells)}
    position[(0, 0)] = -1
    predecessors = tuple(
        tuple(
            position[p]
            for p in ((i - 1, j), (i, j - 1), (i - 1, j - 1))
            if p in position
        )
        for i, j in cells
    )
    rows = np.array([i - 1 for i, _ in cells], dtype=np.intp)
    cols = np.array([j - 1 for _, j in cells], dtype=np.intp)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, predecessors


def batch_warped_distance(
    query_states: np.ndarray,
    query_amplitudes: np.ndarray,
    query_durations: np.ndarray,
    candidate_states: np.ndarray,
    candidate_amplitudes: np.ndarray,
    candidate_durations: np.ndarray,
    source_weights: np.ndarray,
    params: SimilarityParams | None = None,
) -> np.ndarray:
    """Banded DTW over PLR segments against one fine-signature group.

    All candidates in the batch share one segment-state sequence
    ``candidate_states`` (the state-signature index stores windows in
    per-signature postings, so a posting *is* such a group), which lets
    the alignment structure be worked out once and the DP run vectorised
    over the candidate axis.

    Alignment cells pair query segment ``i`` with candidate segment
    ``j``; a cell costs ``inf`` when the segment states differ and
    ``w_i * (w_a*|dA| + w_f*|dT|)`` otherwise, with the recency ramp
    taken from the *query* side.  Only cells with ``|i - j| <=
    warp_band`` are reachable (strict Sakoe-Chiba — the band is not
    widened for unequal lengths; length pairs beyond the band are simply
    incomparable).  ``inf`` results mean no within-band, state-consistent
    alignment exists; callers must filter non-finite distances.

    Only the live cells (:func:`_warp_path_cells`) are scored: each gets
    one row, holding first its cost and then its accumulated distance.
    A live cell runs the reference DP's operations in its order — the
    cost, ``min(min(up, left), diag)`` over its predecessors, one add —
    with the predecessors that are ``inf`` whatever the features left
    out of the ``min``, which returns the other operand bit for bit.  So
    every distance is the one the full ``(nq + 1) x (nc + 1)`` DP yields.

    The ``normalize_inner_sum`` ablation divides by the *constant* query
    weight sum — a path-dependent normalizer would break the DP's
    optimal-substructure property.

    Returns distances of shape ``(n_candidates,)``.
    """
    params = params or SimilarityParams()
    nq = len(query_states)
    nc = len(candidate_states)
    n_candidates = len(candidate_amplitudes)
    if n_candidates == 0:
        return np.empty(0, dtype=float)
    band = params.warp_band
    if nq < 1 or nc < 1 or abs(nq - nc) > band:
        return np.full(n_candidates, np.inf)
    path = _warp_path_cells(
        tuple(np.asarray(query_states).tolist()),
        tuple(np.asarray(candidate_states).tolist()),
        band,
    )
    if path is None:
        return np.full(n_candidates, np.inf)
    rows, cols, predecessors = path

    weights = vertex_weights(
        nq, params.vertex_base_weight if params.use_vertex_weights else 1.0
    )
    q_amps = np.asarray(query_amplitudes, dtype=float)
    q_durs = np.asarray(query_durations, dtype=float)
    # One contiguous row per live cell: the candidate column it reads,
    # gathered once, then turned in place into the cell's cost.
    acc = np.asarray(candidate_amplitudes, dtype=float).T[cols]
    np.subtract(q_amps[rows, None], acc, out=acc)
    np.abs(acc, out=acc)
    np.multiply(params.amplitude_weight, acc, out=acc)
    dur_term = np.asarray(candidate_durations, dtype=float).T[cols]
    np.subtract(q_durs[rows, None], dur_term, out=dur_term)
    np.abs(dur_term, out=dur_term)
    np.multiply(params.frequency_weight, dur_term, out=dur_term)
    np.add(acc, dur_term, out=acc)
    np.multiply(weights[rows, None], acc, out=acc)

    best = dur_term[0]
    for k, preds in enumerate(predecessors):
        cell = acc[k]
        if preds[0] < 0:  # cell (1, 1): the origin's 0.0 is its best
            np.add(cell, 0.0, out=cell)
        elif len(preds) == 1:
            np.add(cell, acc[preds[0]], out=cell)
        else:
            np.minimum(acc[preds[0]], acc[preds[1]], out=best)
            if len(preds) == 3:
                np.minimum(best, acc[preds[2]], out=best)
            np.add(cell, best, out=cell)

    base = acc[-1].copy()
    if params.normalize_inner_sum:
        base = base / weights.sum()
    if not params.use_source_weights:
        return base
    if params.source_weight_multiplies:
        return base * source_weights
    return base / source_weights
