"""Online motion prediction from retrieved matches (Section 4.3).

The immediate future of every historical match is known; the query's
future is predicted as the weighted average of the matches' futures,
expressed *relative to an anchor vertex of each match* and re-anchored at
the query's corresponding vertex:

    predicted(dt) = q_anchor + sum_j w_j * (v_j(dt) - r_j,anchor) / sum_j w_j

where ``v_j(dt)`` is match ``j``'s stream position ``dt`` after the
match's last vertex and ``w_j`` is the match's subsequence (source)
weight.  The relative form makes the prediction insensitive to baseline
shifts between the query and its matches.

**Anchor interpretation.**  The source text's formula is typographically
damaged; it names "the first vertex position" of the query and of each
match.  Anchoring at the *first* vertex makes the prediction inherit the
whole-window displacement mismatch, so the error would not vanish as
``dt -> 0`` even though the current position is known — inconsistent with
Figure 6a, where error grows from small values with ``dt``.  The default
here therefore anchors at the **last** vertex (the current position); the
literal first-vertex reading is available as ``anchor="first"`` and is
ablated in ``benchmarks/bench_ablations.py``.

The same machinery predicts the next segment's amplitude and duration
(frequency), which the paper notes is analogous.

**Vectorised serving.**  Matches only change when a vertex commits, but
predictions are requested at the imaging rate (30 Hz) — tens to hundreds
of serves per match set.  :class:`PredictionPlan` therefore packs the
matches' futures into columnar buffers once per refresh (anchor, weights,
per-match reference vertices, and a narrow window of each match's next
``_PLAN_TAIL_COLUMNS`` stream vertices) so each serve is a handful of
array ops: a known-future mask, one gather-interpolate over the tail
windows, and a sequential weighted reduction.  The reductions use
``np.cumsum`` (strictly left-to-right, unlike ``np.add.reduce``'s
pairwise tree) so plan outputs are byte-identical to the scalar loop in
:meth:`OnlinePredictor._combine_scalar`, which stays frozen as the
reference semantics (see also ``testing/oracle.reference_prediction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..database.store import MotionDatabase
from .matching import Match, MatchSet, SubsequenceMatcher
from .model import PLRSeries, Subsequence
from .similarity import SimilarityParams

__all__ = [
    "Prediction",
    "SegmentForecast",
    "OnlinePredictor",
    "PredictionPlan",
    "build_prediction_plan",
    "horizon_grid",
]

#: Future stream vertices packed per match.  Serving horizons are bounded
#: by the system latency (<= ~0.3 s, i.e. one or two segments), so almost
#: every serve lands inside this window; the rare horizon past it falls
#: back to ``PLRSeries.position_at`` for that row (identical by
#: definition, just slower).
_PLAN_TAIL_COLUMNS = 12


@lru_cache(maxsize=256)
def _horizon_grid_cached(n_steps: int, step: float) -> np.ndarray:
    grid = step * np.arange(1, n_steps + 1)
    grid.setflags(write=False)
    return grid


def horizon_grid(n_steps: int, step: float) -> np.ndarray:
    """Memoised look-ahead grid ``step, 2*step, ..., n_steps*step``.

    Grid serving (``PredictionPlan.serve_many``) re-creates the same
    horizon ladder on every call site; like the vertex-weight ramps in
    :mod:`.similarity`, the array is tiny but requested constantly, so it
    is built once per ``(n_steps, step)`` and shared read-only.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not step > 0:
        raise ValueError("step must be positive")
    return _horizon_grid_cached(int(n_steps), float(step))


@dataclass(frozen=True)
class Prediction:
    """A predicted future position."""

    time: float
    horizon: float
    position: np.ndarray
    n_matches: int

    @property
    def primary(self) -> float:
        """Predicted primary-axis (superior-inferior) coordinate."""
        return float(self.position[0])


@dataclass(frozen=True)
class SegmentForecast:
    """Predicted amplitude and duration of the upcoming segment."""

    amplitude: float
    duration: float
    n_matches: int


class PredictionPlan:
    """Packed per-match buffers serving any horizon without Python loops.

    Built once per (query, matches) refresh by
    :func:`build_prediction_plan` / :meth:`OnlinePredictor.build_plan`.
    Row ``j`` holds match ``j``'s end time, its stream's end time, its
    combination weight, its anchor-reference position, and a padded
    window of the ``_PLAN_TAIL_COLUMNS`` stream vertices following the
    match (times padded with ``+inf``, positions clamped to the last
    vertex, so end-of-stream clamping falls out of the interpolation
    formula: ``alpha = finite / inf = 0``).

    The tail window is stored component first (:attr:`tail`,
    ``(1 + ndim, K + 1, n)``): ``tail[0, k, j]`` is the time of match
    ``j``'s ``k``-th tail vertex and ``tail[1:, k, j]`` its position, so
    every component is one contiguous ``(K + 1, n)`` slab and the
    serving arithmetic runs over contiguous rows.  :attr:`tail_upper`
    (``tail[0, 1:]``) is the slab the segment-selecting compare reads.
    The fleet dispatch concatenates these per-plan buffers along the
    match axis as they are.

    Every serve is byte-identical to the frozen scalar loop
    (``OnlinePredictor._combine_scalar`` /
    ``testing.oracle.reference_prediction``) for ``horizon >= 0``; the
    sums run via ``np.cumsum``, the only numpy reduction with the scalar
    loop's strict left-to-right association.

    A plan is a snapshot: it stays valid while the underlying streams
    are unchanged.  Live sessions invalidate on every query refresh
    (matches can only change then) and :attr:`removal_epoch` guards
    against streams being dropped from the database underneath it.
    """

    __slots__ = (
        "anchor",
        "n_matches",
        "ndim",
        "end_times",
        "series_ends",
        "weights",
        "refs",
        "tail",
        "tail_upper",
        "removal_epoch",
        "_cols",
        "_series",
        "_series_index",
    )

    def __init__(
        self,
        anchor: np.ndarray,
        end_times: np.ndarray,
        series_ends: np.ndarray,
        weights: np.ndarray,
        refs: np.ndarray,
        tail: np.ndarray,
        series: list[PLRSeries],
        series_index: np.ndarray,
        removal_epoch: int,
    ) -> None:
        self.anchor = anchor
        self.n_matches = len(end_times)
        self.ndim = anchor.shape[0]
        self.end_times = end_times
        self.series_ends = series_ends
        self.weights = weights
        self.refs = refs
        self.tail = tail
        self.tail_upper = tail[0, 1:]
        self.removal_epoch = removal_epoch
        self._cols = np.arange(self.n_matches)
        self._series = series
        self._series_index = series_index

    def match_position_at(self, j: int, t: float) -> np.ndarray:
        """Match ``j``'s stream position at absolute time ``t``.

        The exact fallback for a horizon past the packed tail window.
        """
        return self._series[self._series_index[j]].position_at(t)

    # -- kernel -----------------------------------------------------------

    def _futures(
        self, t: np.ndarray, need: np.ndarray | None
    ) -> np.ndarray:
        """Each match's stream position at absolute times ``t``.

        ``t`` has shape ``(..., n_matches)``; leading axes broadcast over
        the packed buffers (grid serving passes ``(H, n)``).  ``need``
        masks which entries must be exact — rows whose horizon overflows
        the packed tail window are recomputed via the scalar
        ``position_at`` only when needed.
        """
        n_pairs = self.tail_upper.shape[0]
        # Count of tail vertices after the first at or before t ==
        # searchsorted 'right' on the same values: selects the segment
        # exactly like the scalar position_at.
        li = (self.tail_upper <= t[..., None, :]).sum(axis=-2)
        li_safe = np.minimum(li, n_pairs - 1)
        # Fancy-index gathers: self._cols broadcasts against li's leading
        # axes, so grid serving gathers a whole (H, n) plane in one call
        # (component first: g0 and g1 are (1 + ndim, ..., n)).
        g0 = self.tail[:, li_safe, self._cols]
        g1 = self.tail[:, li_safe + 1, self._cols]
        t0 = g0[0]
        p0 = g0[1:]
        alpha = (t - t0) / (g1[0] - t0)
        futures = np.moveaxis(p0 + alpha * (g1[1:] - p0), 0, -1)
        overflow = li > n_pairs - 1
        if need is not None:
            overflow = overflow & need
        if overflow.any():
            for index in np.argwhere(overflow):
                where = tuple(index)
                futures[where] = self.match_position_at(
                    index[-1], float(t[where])
                )
        return futures

    def _reduce(
        self, t: np.ndarray, usable: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequential weighted sums over the match axis.

        Returns ``(totals, weight_sums)`` with the match axis reduced.
        Unusable entries contribute exactly ``0.0`` (bitwise-neutral in a
        left-to-right sum), mirroring the scalar loop's skip.
        """
        futures = self._futures(t, usable)
        diffs = self.weights[..., None] * (futures - self.refs)
        if usable is None:
            weights = np.broadcast_to(self.weights, t.shape)
        else:
            diffs = np.where(usable[..., None], diffs, 0.0)
            weights = np.where(usable, self.weights, 0.0)
        totals = np.cumsum(diffs, axis=-2)[..., -1, :]
        weight_sums = np.cumsum(weights, axis=-1)[..., -1]
        return totals, weight_sums

    # -- serving ----------------------------------------------------------

    def serve(
        self, horizon: float, min_matches: int = 1
    ) -> tuple[np.ndarray | None, int]:
        """Predicted position at ``horizon`` (>= 0) past each match.

        Applies the known-future filter; returns ``(position, n_usable)``
        with ``position = None`` when fewer than ``min_matches`` matches
        (always at least one) have a recorded future.
        """
        if self.n_matches == 0:
            return None, 0
        t = self.end_times + horizon
        usable = t <= self.series_ends
        n_usable = int(np.count_nonzero(usable))
        if n_usable < max(min_matches, 1):
            return None, n_usable
        totals, weight_sums = self._reduce(t, usable)
        return self.anchor + totals / weight_sums, n_usable

    def serve_many(
        self, horizons: np.ndarray, min_matches: int = 1
    ) -> list[np.ndarray | None]:
        """One batched serve for a whole horizon grid.

        Equivalent to ``[serve(h)[0] for h in horizons]`` (byte-identical
        positions) in a single dispatch over a ``(H, n_matches)`` plane.
        """
        horizons = np.asarray(horizons, dtype=float)
        if self.n_matches == 0:
            return [None] * len(horizons)
        t = self.end_times[None, :] + horizons[:, None]
        usable = t <= self.series_ends
        counts = np.count_nonzero(usable, axis=1)
        served = counts >= max(min_matches, 1)
        if not served.any():
            return [None] * len(horizons)
        totals, weight_sums = self._reduce(t, usable)
        return [
            self.anchor + totals[i] / weight_sums[i] if served[i] else None
            for i in range(len(horizons))
        ]

    def combine_at(self, horizon: float) -> np.ndarray:
        """The weighted-average future with *no* known-future filter.

        The plan-backed equivalent of ``OnlinePredictor.combine`` over
        exactly the packed matches; requires ``horizon >= 0``.
        """
        if self.n_matches == 0:
            raise ValueError("combine needs at least one match")
        if horizon < 0:
            raise ValueError("prediction plans serve horizons >= 0")
        t = self.end_times + horizon
        totals, weight_sums = self._reduce(t, None)
        return self.anchor + totals / weight_sums


def build_prediction_plan(
    database: MotionDatabase,
    query: Subsequence,
    matches: MatchSet | list[Match],
    params: SimilarityParams,
    anchor: str = "last",
    distance_weighted: bool = False,
    series_of=None,
) -> PredictionPlan:
    """Pack ``matches`` into a :class:`PredictionPlan`.

    Reads the match set's columns (a ``list[Match]`` is converted once
    with :meth:`MatchSet.from_matches`).  Weights are gathered per stream
    code.  The matched streams' times and positions are concatenated
    once, so every match's end time, reference vertex and tail window is
    one gather at its stream's base offset, clamped to that stream's
    last vertex.

    ``series_of`` optionally overrides how a match's stream id resolves
    to its :class:`PLRSeries` (default: ``database.stream(id).series``).
    The sharded serving tier passes a resolver that falls back to a
    cache of shipped foreign series for matches whose streams live on
    another shard; since the packed columns and the overflow fallback
    both read only the resolved series, a bit-exact copy yields a
    bit-exact plan.
    """
    matches = MatchSet.from_matches(matches)
    if anchor == "last":
        anchor_position = query.last_vertex.position_array()
    else:
        anchor_position = query.first_vertex.position_array()
    n = len(matches)
    ndim = anchor_position.shape[0]
    window = _PLAN_TAIL_COLUMNS + 1
    present, series_index = np.unique(matches.codes, return_inverse=True)
    codes = present.tolist()
    names = matches.names
    if series_of is None:
        series = [database.stream(names[c]).series for c in codes]
    else:
        series = [series_of(names[c]) for c in codes]
    relations = matches.relations
    weights = np.asarray(
        [params.source_weight(relations[c]) for c in codes], dtype=float
    )[series_index]
    if distance_weighted:
        weights = weights / (1.0 + matches.distances)
    if series:
        times = np.concatenate([s.times for s in series])
        positions = np.concatenate([s.positions for s in series])
    else:
        times = np.empty(0)
        positions = np.empty((0, ndim))
    sizes = np.asarray([len(s.times) for s in series], dtype=np.intp)
    bases = np.cumsum(sizes) - sizes
    base = bases[series_index]
    last = (base + sizes[series_index]) - 1
    ends = base + matches.starts + matches.lengths - 1
    end_times = times[ends]
    series_ends = times[last]
    if anchor == "last":
        refs = positions[ends]
    else:
        refs = positions[base + matches.starts]
    indices = ends + np.arange(window)[:, None]
    clamped = np.minimum(indices, last)
    tail = np.empty((1 + ndim, window, n))
    tail[0] = np.where(indices <= last, times[clamped], np.inf)
    tail[1:] = positions.T[:, clamped]
    return PredictionPlan(
        anchor=anchor_position,
        end_times=end_times,
        series_ends=series_ends,
        weights=weights,
        refs=refs,
        tail=tail,
        series=series,
        series_index=series_index,
        removal_epoch=database.removal_epoch,
    )


class OnlinePredictor:
    """Predicts future tumor position from subsequence matches.

    Parameters
    ----------
    database:
        The stream store (needed to read the matches' futures).
    matcher:
        The matcher used for retrieval; its parameters define similarity.
    min_matches:
        Predict only when at least this many matches were retrieved (the
        paper predicts "only if there are a certain number of retrieved
        subsequences"; fewer matches means no prediction, which the
        Figure 9 coverage metric counts).
    max_matches:
        Optional cap on how many closest matches contribute.  ``None``
        (default, paper-faithful) uses every match within the threshold,
        weighted by its subsequence weight.
    distance_weighted:
        Extension: additionally down-weight matches by ``1 / (1 + d)``.
        Off by default (the paper weights by the subsequence weight only).
    anchor:
        ``"last"`` (default) anchors predictions at the query's most recent
        vertex; ``"first"`` is the literal reading of the damaged formula
        (see module docstring).
    """

    def __init__(
        self,
        database: MotionDatabase,
        matcher: SubsequenceMatcher,
        min_matches: int = 2,
        max_matches: int | None = None,
        distance_weighted: bool = False,
        anchor: str = "last",
    ) -> None:
        if min_matches < 1:
            raise ValueError("min_matches must be at least 1")
        if anchor not in ("last", "first"):
            raise ValueError("anchor must be 'last' or 'first'")
        self.database = database
        self.matcher = matcher
        self.min_matches = min_matches
        self.max_matches = max_matches
        self.distance_weighted = distance_weighted
        self.anchor = anchor

    # -- position ---------------------------------------------------------------

    def predict(
        self,
        query: Subsequence,
        query_stream_id: str | None,
        horizon: float,
        threshold: float | None = None,
        restrict_patients=None,
        params: SimilarityParams | None = None,
    ) -> Prediction | None:
        """Predict the position ``horizon`` seconds past the query's end.

        Returns ``None`` when fewer than ``min_matches`` similar
        subsequences exist (no prediction is made).

        Parameters
        ----------
        query:
            The dynamic query subsequence; its last vertex is "now".
        query_stream_id:
            Stream the query belongs to (source weighting / overlap
            exclusion).
        horizon:
            Look-ahead in seconds (system latency, <= ~0.3 s in the paper).
        threshold, restrict_patients, params:
            Forwarded to the matcher.
        """
        matches = self.matcher.find_matches(
            query,
            query_stream_id,
            threshold=threshold,
            max_matches=self.max_matches,
            restrict_patients=restrict_patients,
            params=params,
        )
        matches = self.with_known_future(matches, horizon)
        if len(matches) < self.min_matches:
            return None
        position = self.combine(query, matches, horizon, params)
        now = query.last_vertex.time
        return Prediction(
            time=now + horizon,
            horizon=horizon,
            position=position,
            n_matches=len(matches),
        )

    def with_known_future(
        self, matches: list[Match], horizon: float
    ) -> list[Match]:
        """Drop matches whose stream ends before ``horizon`` past the match.

        "The immediate future of a historical subsequence is known" — a
        window at the very tail of its stream has no recorded future, so it
        cannot contribute (this also removes same-session windows adjacent
        to the live edge, whose future has not happened yet).
        """
        usable = []
        for match in matches:
            series = self.database.stream(match.stream_id).series
            end_time = series.times[match.start + match.n_vertices - 1]
            if end_time + horizon <= series.end_time:
                usable.append(match)
        return usable

    def build_plan(
        self,
        query: Subsequence,
        matches: MatchSet | list[Match],
        params: SimilarityParams | None = None,
        series_of=None,
    ) -> PredictionPlan:
        """Pack ``matches`` into a reusable :class:`PredictionPlan`.

        Build once per match refresh, then serve every tick/horizon from
        the plan; outputs are byte-identical to :meth:`combine`.
        ``series_of`` optionally resolves stream ids that are not in the
        local database (shard workers resolve shipped foreign series).
        """
        return build_prediction_plan(
            self.database,
            query,
            matches,
            params=params or self.matcher.params,
            anchor=self.anchor,
            distance_weighted=self.distance_weighted,
            series_of=series_of,
        )

    def combine(
        self,
        query: Subsequence,
        matches: list[Match],
        horizon: float,
        params: SimilarityParams | None = None,
    ) -> np.ndarray:
        """The weighted-average future position for given matches."""
        if not matches:
            raise ValueError("combine needs at least one match")
        if horizon < 0:
            # Plans only pack each match's future; a (rare, analysis-only)
            # negative horizon reads the past through the scalar loop.
            return self._combine_scalar(query, matches, horizon, params)
        return self.build_plan(query, matches, params).combine_at(horizon)

    def _combine_scalar(
        self,
        query: Subsequence,
        matches: list[Match],
        horizon: float,
        params: SimilarityParams | None = None,
    ) -> np.ndarray:
        """The frozen per-match Python loop (reference semantics).

        Kept verbatim as the plan kernel's ground truth — see
        ``testing/oracle.reference_prediction`` and the equivalence
        sweeps in ``tests/test_prediction_plan.py``.
        """
        params = params or self.matcher.params
        if self.anchor == "last":
            anchor = query.last_vertex.position_array()
        else:
            anchor = query.first_vertex.position_array()
        total_weight = 0.0
        total = np.zeros_like(anchor)
        for match in matches:
            series = self.database.stream(match.stream_id).series
            end_index = match.start + match.n_vertices - 1
            end_time = series.times[end_index]
            future = series.position_at(end_time + horizon)
            if self.anchor == "last":
                reference = series.positions[end_index]
            else:
                reference = series.positions[match.start]
            weight = params.source_weight(match.relation)
            if self.distance_weighted:
                weight /= 1.0 + match.distance
            total += weight * (future - reference)
            total_weight += weight
        return anchor + total / total_weight

    def predict_state(
        self,
        query: Subsequence,
        query_stream_id: str | None,
        horizon: float,
        threshold: float | None = None,
        params: SimilarityParams | None = None,
    ):
        """Predict the breathing *state* ``horizon`` past the query's end.

        Each match votes with the state of the segment its own stream is in
        ``horizon`` after the match's last vertex, weighted by the match's
        subsequence weight.  Returns ``(state, confidence)`` or ``None``
        when too few matches have a known future.  This is the signal
        phase-based gating needs (beam on during a predicted rest state).
        """
        from .model import BreathingState

        matches = self.matcher.find_matches(
            query,
            query_stream_id,
            threshold=threshold,
            max_matches=self.max_matches,
            params=params,
        )
        matches = self.with_known_future(matches, horizon)
        if len(matches) < self.min_matches:
            return None
        params = params or self.matcher.params
        votes: dict[BreathingState, float] = {}
        total = 0.0
        for match in matches:
            series = self.database.stream(match.stream_id).series
            end_time = series.times[match.start + match.n_vertices - 1]
            segment = series.segment_index_at(end_time + horizon)
            state = BreathingState(int(series.states[segment]))
            weight = params.source_weight(match.relation)
            votes[state] = votes.get(state, 0.0) + weight
            total += weight
        best = max(votes, key=votes.get)
        return best, votes[best] / total

    # -- next-segment features ---------------------------------------------------

    def forecast_segment(
        self,
        query: Subsequence,
        query_stream_id: str | None,
        threshold: float | None = None,
        params: SimilarityParams | None = None,
    ) -> SegmentForecast | None:
        """Predict the amplitude and duration of the segment after the query.

        Analogous to position prediction (Section 4.3: "future frequency,
        amplitude or position can be predicted"): each match contributes
        the features of the segment that followed it in its own stream.
        """
        matches = self.matcher.find_matches(
            query,
            query_stream_id,
            threshold=threshold,
            max_matches=self.max_matches,
            params=params,
        )
        params = params or self.matcher.params
        amplitudes = []
        durations = []
        weights = []
        for match in matches:
            series = self.database.stream(match.stream_id).series
            next_segment = match.start + match.n_vertices - 1
            if next_segment >= series.n_segments:
                continue
            amplitudes.append(series.amplitudes[next_segment])
            durations.append(series.durations[next_segment])
            weights.append(params.source_weight(match.relation))
        if len(weights) < self.min_matches:
            return None
        weights = np.asarray(weights)
        return SegmentForecast(
            amplitude=float(np.average(amplitudes, weights=weights)),
            duration=float(np.average(durations, weights=weights)),
            n_matches=len(weights),
        )
