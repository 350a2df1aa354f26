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
``_PLAN_TAIL_COLUMNS`` stream vertices).  :class:`PlanStack` lays one or
more plans end to end and serves them all in one pass: a known-future
mask, one gather-interpolate over the tail windows, and a sequential
weighted reduction per row.  It is the only kernel — a live fleet, a
solo session, :meth:`OnlinePredictor.predict` and the replay harness all
serve through it.  The reductions use ``np.cumsum`` (strictly
left-to-right, unlike ``np.add.reduce``'s pairwise tree) so every serve
is byte-identical to the frozen per-match loop
``testing/oracle.reference_prediction``.  Horizons must be ``>= 0``:
plans pack only each match's future.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..database.store import MotionDatabase
from .matching import Match, MatchSet, SubsequenceMatcher
from .model import PLRSeries, Subsequence
from .similarity import SimilarityParams

__all__ = [
    "Prediction",
    "SegmentForecast",
    "OnlinePredictor",
    "PlanStack",
    "PredictionPlan",
    "build_prediction_plan",
]

#: Future stream vertices packed per match.  Serving horizons are bounded
#: by the system latency (<= ~0.3 s, i.e. one or two segments), so almost
#: every serve lands inside this window; the rare horizon past it falls
#: back to ``PLRSeries.position_at`` for that row (identical by
#: definition, just slower).
_PLAN_TAIL_COLUMNS = 12


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
    """Packed per-match buffers: one row of a :class:`PlanStack`.

    Built once per (query, matches) refresh by
    :func:`build_prediction_plan` / :meth:`OnlinePredictor.build_plan`.
    Row ``j`` holds match ``j``'s end time, its stream's end time, its
    combination weight, its anchor-reference position, and a padded
    window of the ``_PLAN_TAIL_COLUMNS`` stream vertices following the
    match (times padded with ``+inf``, positions clamped to the last
    vertex, so end-of-stream clamping falls out of the interpolation
    formula: ``alpha = finite / inf = 0``).

    The reference positions and the tail window are stored component
    first (:attr:`refs`, ``(ndim, n)``; :attr:`tail`,
    ``(1 + ndim, K + 1, n)``): ``tail[0, k, j]`` is the time of match
    ``j``'s ``k``-th tail vertex and ``tail[1:, k, j]`` its position, so
    every component is one contiguous ``(K + 1, n)`` slab and the
    serving arithmetic runs over contiguous rows.  A :class:`PlanStack`
    concatenates these per-plan buffers along the match axis as they
    are and serves them.

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
        "removal_epoch",
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
        self.removal_epoch = removal_epoch
        self._series = series
        self._series_index = series_index

    def match_position_at(self, j: int, t: float) -> np.ndarray:
        """Match ``j``'s stream position at absolute time ``t``.

        The exact fallback for a horizon past the packed tail window.
        """
        return self._series[self._series_index[j]].position_at(t)


def _joined(columns: list[np.ndarray]) -> np.ndarray:
    """Per-plan columns concatenated along the match (last) axis.

    A single plan's column is used as it is: serves only read it.
    """
    if len(columns) == 1:
        return columns[0]
    return np.concatenate(columns, axis=-1)


class PlanStack:
    """Prediction plans laid end to end on one match axis: the §4.3 kernel.

    :meth:`serve` is the one place the weighted average
    ``anchor + sum_j w_j (future_j - ref_j) / sum_j w_j`` is computed.
    Every caller serves through a stack: the session service stacks one
    row per live tenant, a solo session and
    :meth:`OnlinePredictor.predict` serve a one-row stack, and the
    replay harness stacks one row per configured horizon over the same
    plan.

    Rows are plans; their matches sit back to back on one flat match
    axis (``rows[m]`` is match ``m``'s row), so one serve answers every
    row's horizon with array ops over real matches only — the
    known-future compare, the tail gather and the interpolation never
    touch padding, however skewed the rows' match counts are.

    Only the weighted sums need a row structure: they must run strictly
    left to right per row to stay byte-identical to the frozen scalar
    loop (``testing.oracle.reference_prediction``).  Each serve scatters
    the per-match terms (weighted offset, then weight) into zero-filled
    grids and takes ``np.cumsum`` (the one numpy reduction with the
    scalar loop's association) along each grid row; the cells no match
    maps to stay exactly ``+0.0``, which a left-to-right sum passes
    through unchanged.  Rows share a grid by size class (widest first, a
    row joins while it holds at least half the class's widest row), so
    the grids hold at most twice the real matches: one wide row does not
    widen every other row.

    A stack is a snapshot of its plans.  Callers cache it and restack
    when the plans change (:meth:`matches_rows`); a restack is one
    ``np.concatenate`` per column over the plans' own buffers — every
    plan packs its columns once, component first, when it is built —
    so its cost follows the real match count: about 0.8 ms for 6 plans
    holding 7,000 matches between them, on a 2-vCPU Xeon host.  A
    one-row stack reads its plan's buffers without copying them.
    """

    def __init__(
        self, plans: Sequence[PredictionPlan], min_matches: Sequence[int]
    ) -> None:
        self.plans = plans = list(plans)
        sizes = [plan.n_matches for plan in plans]
        n_rows = len(plans)
        #: Row ``r``'s matches sit at ``starts[r]:starts[r + 1]``.
        self.starts = np.array([0, *accumulate(sizes)], dtype=np.intp)
        n = int(self.starts[-1])
        lanes = 1 + plans[0].ndim
        #: Row ``r`` serves only with at least ``min_matches[r]`` usable
        #: matches (always at least one).
        self.min_matches = np.maximum(min_matches, 1)
        # Every per-match column is component first, (..., n): each
        # elementwise step of a serve then runs over contiguous rows.
        self.anchors = np.concatenate(
            [plan.anchor for plan in plans]
        ).reshape(n_rows, -1)
        self.end_times = _joined([plan.end_times for plan in plans])
        self.series_ends = _joined([plan.series_ends for plan in plans])
        self.weights = _joined([plan.weights for plan in plans])
        self.refs = _joined([plan.refs for plan in plans])
        tail = _joined([plan.tail for plan in plans])
        #: The tail times after each match's first: the slab the
        #: segment-selecting compare reads.
        self.tail_upper = tail[0, 1:]
        # Vertex k of match m's tail sits at column k * n + m.
        self._tail_flat = tail.reshape(lanes, -1)
        self.rows = np.repeat(np.arange(n_rows), sizes)
        self._match_ids = np.arange(n)
        # Size classes, widest row first; each is one (lanes, rows,
        # width) grid in a shared zero-filled cell buffer.
        classes: list[list[int]] = []
        for r in sorted(range(n_rows), key=lambda r: -sizes[r]):
            if classes and 2 * sizes[r] >= sizes[classes[-1][0]]:
                classes[-1].append(r)
            else:
                classes.append([r])
        widths = [max(sizes[rows[0]], 1) for rows in classes]
        n_cells = sum(w * len(rows) for rows, w in zip(classes, widths))
        cell_buf = np.zeros((lanes, n_cells))
        cum_buf = np.empty_like(cell_buf)
        first_cell = [0] * n_rows
        self._classes = []
        stop = 0
        for rows, width in zip(classes, widths):
            for k, r in enumerate(rows):
                first_cell[r] = stop + width * k
            span = slice(stop, stop + width * len(rows))
            shape = (lanes, len(rows), width)
            self._classes.append(
                (
                    np.asarray(rows),
                    cell_buf[:, span].reshape(shape),
                    cum_buf[:, span].reshape(shape),
                )
            )
            stop = span.stop
        # Match m's cell: its row's first cell plus its place in the row;
        # _cell_index addresses every lane's copy in the flat buffer.
        cells = self._match_ids + np.repeat(
            np.subtract(first_cell, self.starts[:-1]), sizes
        )
        self._cell_index = np.add.outer(
            np.arange(0, lanes * n_cells, n_cells), cells
        ).reshape(-1)
        self._cells_flat = cell_buf.reshape(-1)
        # Preallocated per-serve workspaces: a stack is served once per
        # frame, so every intermediate writes into a fixed buffer (ufunc
        # ``out=``) instead of allocating.  Only the returned positions
        # array is freshly allocated per call — callers hand out row
        # views that must outlive the next serve.
        self._b_t, self._b_alpha, self._b_den = np.empty((3, n))
        self._b_usable, self._b_not, self._b_over = np.empty(
            (3, n), dtype=bool
        )
        self._b_li, self._b_ls = np.empty((2, n), dtype=np.int8)
        self._b_g0, self._b_g1, self._b_terms = np.empty((3, lanes, n))
        self._b_running = np.zeros(n + 1, dtype=np.intp)
        self._b_cmp = np.empty_like(self.tail_upper, dtype=bool)
        self._b_flat = np.empty(n, dtype=np.intp)
        self._b_sums = np.empty((lanes, n_rows))

    def matches_rows(self, plans: Sequence[PredictionPlan]) -> bool:
        """True when the stack was built from exactly these plans.

        Identity is enough: a plan belongs to one session, whose
        ``min_matches`` never changes.
        """
        return len(plans) == len(self.plans) and all(
            a is b for a, b in zip(plans, self.plans)
        )

    def serve(
        self, horizons: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Serve row ``r`` at ``horizons[r]`` (>= 0) for every row at once.

        Returns ``(served, counts, positions)``: ``counts[r]`` is row
        ``r``'s number of matches with a recorded future that far ahead,
        ``served[r]`` whether that reaches its ``min_matches``, and
        ``positions[r]`` the prediction, only meaningful where served.
        """
        t = np.take(horizons, self.rows, out=self._b_t)
        np.add(self.end_times, t, out=t)
        usable = np.less_equal(t, self.series_ends, out=self._b_usable)
        running = self._b_running
        np.cumsum(usable, dtype=np.intp, out=running[1:])
        counts = running[self.starts[1:]] - running[self.starts[:-1]]
        served = counts >= self.min_matches
        # Segment select: the count of tail vertices after the first at
        # or before t, as searchsorted 'right' and the scalar
        # position_at select it.  An int8 count: the tail window is far
        # narrower than 127.
        n = len(t)
        n_pairs = self.tail_upper.shape[0]
        np.less_equal(self.tail_upper, t, out=self._b_cmp)
        li = self._b_cmp.sum(axis=0, dtype=np.int8, out=self._b_li)
        li_safe = np.minimum(li, n_pairs - 1, out=self._b_ls)
        flat = np.multiply(li_safe, n, out=self._b_flat, dtype=np.intp)
        np.add(flat, self._match_ids, out=flat)
        g0 = self._tail_flat.take(flat, axis=1, mode="clip", out=self._b_g0)
        np.add(flat, n, out=flat)
        g1 = self._tail_flat.take(flat, axis=1, mode="clip", out=self._b_g1)
        t0 = g0[0]
        p0 = g0[1:]
        num = np.subtract(t, t0, out=self._b_alpha)
        den = np.subtract(g1[0], t0, out=self._b_den)
        alpha = np.divide(num, den, out=self._b_alpha)
        # Weighted offsets then the weight: one lane per sum.
        terms = self._b_terms
        futures = np.subtract(g1[1:], p0, out=terms[:-1])
        np.multiply(futures, alpha, out=futures)
        np.add(futures, p0, out=futures)
        # A usable match whose horizon runs past its packed tail reads
        # its own series (identical by definition, just slower).
        overflow = np.greater(li, n_pairs - 1, out=self._b_over)
        np.logical_and(overflow, usable, out=overflow)
        if overflow.any():
            for m in np.flatnonzero(overflow):
                row = self.rows[m]
                futures[:, m] = self.plans[row].match_position_at(
                    m - self.starts[row], float(t[m])
                )
        np.subtract(futures, self.refs, out=futures)
        np.multiply(futures, self.weights, out=futures)
        terms[-1] = self.weights
        unusable = np.logical_not(usable, out=self._b_not)
        np.copyto(terms, 0.0, where=unusable)
        self._cells_flat[self._cell_index] = terms.reshape(-1)
        sums = self._b_sums
        for rows, grid, cum in self._classes:
            sums[:, rows] = np.cumsum(grid, axis=2, out=cum)[..., -1]
        totals = sums[:-1].T
        weight_sums = sums[-1]
        if served.all():
            positions = self.anchors + totals / weight_sums[:, None]
        else:
            positions = np.empty_like(self.anchors)
            rows = np.nonzero(served)[0]
            positions[rows] = (
                self.anchors[rows] + totals[rows] / weight_sums[rows, None]
            )
        return served, counts, positions


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
    reference = ends if anchor == "last" else base + matches.starts
    refs = np.ascontiguousarray(positions[reference].T)
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
        subsequences have a recorded future ``horizon`` past their end
        (no prediction is made).

        Parameters
        ----------
        query:
            The dynamic query subsequence; its last vertex is "now".
        query_stream_id:
            Stream the query belongs to (source weighting / overlap
            exclusion).
        horizon:
            Look-ahead in seconds (system latency, <= ~0.3 s in the
            paper); must be finite and ``>= 0``.
        threshold, restrict_patients, params:
            Forwarded to the matcher.
        """
        if not (math.isfinite(horizon) and horizon >= 0):
            raise ValueError(
                f"horizon must be finite and >= 0, got {horizon!r}"
            )
        matches = self.matcher.find_matches(
            query,
            query_stream_id,
            threshold=threshold,
            max_matches=self.max_matches,
            restrict_patients=restrict_patients,
            params=params,
        )
        plan = self.build_plan(query, matches, params)
        served, counts, positions = PlanStack(
            [plan], [self.min_matches]
        ).serve(np.array([horizon], dtype=float))
        if not served[0]:
            return None
        return Prediction(
            time=query.last_vertex.time + horizon,
            horizon=horizon,
            position=positions[0],
            n_matches=int(counts[0]),
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
        a :class:`PlanStack` over the plan.  ``series_of`` optionally
        resolves stream ids that are not in the local database (shard
        workers resolve shipped foreign series).
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
