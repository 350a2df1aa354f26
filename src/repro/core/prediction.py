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
matches' futures into one column block once per refresh (anchor,
weights, per-match reference vertices, and a narrow window of each
match's next ``_PLAN_TAIL_COLUMNS`` stream vertices).  :class:`PlanStack`
keeps plans in slots of one cell axis and serves them all in one pass.
It is persistent: a new plan rewrites only its own row, and each match
caches the tail segment its target time falls in, stepping it forward
only when a serve's target passes the segment's end, instead of finding
it again every frame.  It is the only kernel — a live fleet, a solo
session, :meth:`OnlinePredictor.predict` and the replay harness all
serve through it.  The reductions use ``np.cumsum`` (strictly
left-to-right, unlike ``np.add.reduce``'s pairwise tree) so every serve
is byte-identical to the frozen per-match loop
``testing/oracle.reference_prediction``.  Horizons must be ``>= 0``:
plans pack only each match's future.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
#: Tail vertices packed per match: its last vertex, then the window.
_TAIL = _PLAN_TAIL_COLUMNS + 1
#: Rows of a plan's column block: end time, stream end time, weight,
#: then the ``ndim`` reference components and the ``1 + ndim`` tail lanes.
_END, _SERIES_END, _WEIGHT, _REF = range(4)
#: The smallest slot of a :class:`PlanStack` holds ``2 ** _MIN_CLASS``
#: matches: narrower rows share it rather than add a grid each.
_MIN_CLASS = 4
#: Spare slots a :class:`PlanStack` rebuild lays out, as a share of the
#: live cells: room for rows that change class before the next rebuild.
_SPARE_SHARE = 0.125


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
    Match ``j`` has an end time, its stream's end time, a combination
    weight, an anchor-reference position, and a padded window of the
    ``_PLAN_TAIL_COLUMNS`` stream vertices following the match (times
    padded with ``+inf``, positions clamped to the last vertex, so
    end-of-stream clamping falls out of the interpolation formula:
    ``alpha = finite / inf = 0``).

    The columns are the rows of one ``(n_columns, n)`` array,
    :attr:`block`, match ``j`` in column ``j``; :attr:`end_times`,
    :attr:`series_ends`, :attr:`weights`, :attr:`refs` (``(ndim, n)``)
    and :attr:`tail` (``(1 + ndim, K + 1, n)``: ``tail[0, k, j]`` is the
    time of match ``j``'s ``k``-th tail vertex and ``tail[1:, k, j]`` its
    position) are views of it, so a :class:`PlanStack` copies a plan
    into its slot with one assignment.

    A plan is a snapshot that holds the series it read: a stream removed
    or re-created in the database afterwards does not change what it
    serves.  Live sessions replace it on every query refresh, adoption
    or restore (matches can only change then).
    """

    __slots__ = (
        "anchor",
        "n_matches",
        "ndim",
        "block",
        "end_times",
        "series_ends",
        "weights",
        "refs",
        "tail",
        "_series",
        "_series_index",
    )

    def __init__(
        self,
        anchor: np.ndarray,
        block: np.ndarray,
        series: list[PLRSeries],
        series_index: np.ndarray,
    ) -> None:
        self.anchor = anchor
        self.ndim = ndim = anchor.shape[0]
        self.block = block
        self.n_matches = n = block.shape[1]
        self.end_times = block[_END]
        self.series_ends = block[_SERIES_END]
        self.weights = block[_WEIGHT]
        self.refs = block[_REF : _REF + ndim]
        self.tail = block[_REF + ndim :].reshape(1 + ndim, _TAIL, n)
        self._series = series
        self._series_index = series_index

    def match_position_at(self, j: int, t: float) -> np.ndarray:
        """Match ``j``'s stream position at absolute time ``t``.

        The exact fallback for a horizon past the packed tail window.
        """
        return self._series[self._series_index[j]].position_at(t)


def _class_of(n_matches: int) -> int:
    """A row's capacity class: its slot holds ``2 ** class`` cells."""
    return max(_MIN_CLASS, (n_matches - 1).bit_length())


@lru_cache(maxsize=None)
def _cell_rows(ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A :class:`PlanStack`'s per-cell rows for ``ndim``, read only.

    Returns the inert padding cell (weight 0, zero positions, stream end
    ``+inf`` and vertex 1 at ``+inf``, so every lane serves ``+0.0`` and
    it never steps or counts as unusable), the rows a cursor step
    gathers at vertex 0 (every lane at ``v``, then at ``v + 1``), and
    the cursor rows it writes.
    """
    lanes = 1 + ndim
    tail = _REF + ndim
    cursor = tail + lanes * _TAIL
    pad = np.zeros(cursor + 3 * lanes)
    pad[_SERIES_END] = np.inf
    pad[tail + 1 : tail + _TAIL] = np.inf
    pad[cursor + lanes] = pad[cursor + 2 * lanes] = np.inf
    vertex_0 = tail + _TAIL * np.arange(lanes)
    rows = (
        pad,
        np.concatenate([vertex_0, vertex_0 + 1])[:, None],
        cursor + np.arange(3 * lanes)[:, None],
    )
    for array in rows:
        array.setflags(write=False)  # shared by every stack of this ndim
    return rows


class _Grid:
    """One capacity class of a :class:`PlanStack`: its slots' span of the
    cell axis as a ``(lanes, slots, capacity)`` grid of terms and one of
    their running sums.

    Sums run over the slots up to the class's last live one, and
    across to its widest row (``width``), since every cell past a row's
    matches is ``+0.0``.  ``fresh`` is set when some row's usable set
    may have changed, so the weight lane is summed again; otherwise its
    running sums stand from an earlier serve.
    """

    __slots__ = ("slots", "terms", "cum", "rows", "width", "fresh", "views")

    def __init__(self, slots: slice, terms: np.ndarray, cum: np.ndarray):
        self.slots = slots
        self.terms = terms
        self.cum = cum
        self.resize(0, 0)

    def resize(self, rows: int, width: int) -> None:
        self.rows = rows
        self.width = width
        self.fresh = True
        terms = self.terms[:, :rows, :width]
        cum = self.cum[:, :rows, :width]
        # Every lane when fresh, else the offset lanes only.
        self.views = ((terms, cum), (terms[:-1], cum[:-1]))


class PlanStack:
    """Prediction plans in slots of one cell axis: the §4.3 kernel.

    :meth:`serve` is the one place the weighted average
    ``anchor + sum_j w_j (future_j - ref_j) / sum_j w_j`` is computed.
    The session service keeps one live stack with a row per tenant, a
    solo session keeps a one-row stack, :meth:`OnlinePredictor.predict`
    serves a one-shot one-row stack, and the replay harness stacks one
    row per configured horizon over the same plan.

    **Slots.**  A row (a plan) fills the front of a slot whose capacity
    is a power of two, its *class* (at least ``2 ** _MIN_CLASS``); the
    slots of a class are one ``(slots, capacity)`` grid of a flat cell
    axis, narrowest class first.  Each grid takes ``np.cumsum`` (the one
    numpy reduction with the scalar loop's left-to-right association)
    along its slots up to its widest row, so every row is byte-identical
    to ``testing.oracle.reference_prediction``.  Padding and free cells
    carry weight 0, zero positions, stream end ``+inf`` and a next
    vertex at ``+inf``: their lanes are exactly ``+0.0``, which a
    left-to-right sum passes through, and they never step or count.

    **Restack per row.**  :meth:`restack` keeps the slot of every row
    whose plan object is unchanged and copies each new plan into the
    lowest free slot of its class or the class above (a plan listed
    ``k`` times holds ``k`` slots); unclaimed slots become free.  It
    rebuilds, restarting every cursor, only when no free slot fits or
    more than half the cells are free; a rebuild leaves spare slots
    worth ``_SPARE_SHARE`` of the live cells, narrowest classes first.

    **Cursors.**  Each match caches the tail segment its target time
    ``t = end + horizon`` falls in: ``t0``, ``t1``, ``t1 - t0``, ``p0``
    and ``p1 - p0``.  A serve steps forward only the matches with
    ``t >= t1``, repeating while any stepped, so ``t0 <= t < t1`` holds
    inside the packed window: the segment ``PLRSeries.position_at``
    picks.  Tail times never decrease, nor do a row's target times while
    its horizon does not; a row whose horizon fell, or whose plan was
    just written, restarts at vertex 0.  The cached values are the same
    subtractions of the same operands as a fresh gather, so serves stay
    byte-identical.  A usable match past its window reads its series.

    **Terms in place.**  Every per-match column is kept in cell order,
    so a serve writes the weighted offsets straight into the grids and
    zeroes and counts (``np.bincount``) the unusable cells.  The weight
    lane only loses cells between restarts (a target past its stream's
    end stays past it), so a class sums it again only when some row's
    unusable count moved.
    """

    def __init__(
        self, plans: Sequence[PredictionPlan], min_matches: Sequence[int]
    ) -> None:
        self._rebuild(list(plans), min_matches)

    def restack(
        self, plans: Sequence[PredictionPlan], min_matches: Sequence[int]
    ) -> None:
        """Make ``plans`` the rows, writing only the rows whose plan is new.

        A no-op when the rows are exactly the current plans.  Identity
        is enough: a plan belongs to one session, whose ``min_matches``
        never changes.
        """
        plans = list(plans)
        current = self.plans
        if len(plans) == len(current) and all(
            a is b for a, b in zip(plans, current)
        ):
            return
        if plans[0].ndim != self.ndim:
            self._rebuild(plans, min_matches)
            return
        # A row whose plan is unchanged keeps its slot; the slots of the
        # other old rows go to new rows listing the same plan, or free.
        old_slot = self._row_slot.tolist()
        row_slot = [-1] * len(plans)
        held: dict[int, list[int]] = {}
        for r, plan in enumerate(current):
            if r < len(plans) and plans[r] is plan:
                row_slot[r] = old_slot[r]
            else:
                held.setdefault(id(plan), []).append(old_slot[r])
        fresh = []
        for r, slot in enumerate(row_slot):
            if slot < 0:
                slots = held.get(id(plans[r]))
                if slots:
                    row_slot[r] = slots.pop()
                else:
                    fresh.append(r)
        freed = [slot for slots in held.values() for slot in slots]
        for slot in freed:
            self._release(slot)
        for r in fresh:
            slot = self._take(_class_of(plans[r].n_matches))
            if slot is None:
                self._rebuild(plans, min_matches)
                return
            self._write(slot, plans[r])
            row_slot[r] = slot
        for slot in freed:
            if self._slot_plan[slot] is None:
                self._blank(slot)
        for slot in freed + [row_slot[r] for r in fresh]:
            self._fit(self._slot_grid[slot])
        self._set_rows(plans, min_matches, row_slot)
        if 2 * self._live_cells < self._n_cells:
            self._rebuild(plans, min_matches)

    # -- layout ----------------------------------------------------------------

    def _rebuild(
        self, plans: list[PredictionPlan], min_matches: Sequence[int]
    ) -> None:
        """Lay every row out afresh, with spare slots; cursors at vertex 0."""
        self.ndim = ndim = plans[0].ndim
        lanes = 1 + ndim
        classes = [_class_of(plan.n_matches) for plan in plans]
        live: dict[int, int] = {}
        for k in classes:
            live[k] = live.get(k, 0) + 1
        budget = _SPARE_SHARE * sum(n << k for k, n in live.items())
        layout = []
        for k in sorted(live):
            spare = 0
            while spare < max(1, live[k] // 2) and (1 << k) <= budget:
                spare += 1
                budget -= 1 << k
            layout.append((k, live[k] + spare))
        caps = np.repeat([1 << k for k, _ in layout], [n for _, n in layout])
        n_slots = len(caps)
        self._slot_cap = caps
        self._slot_start = np.cumsum(caps) - caps
        self._n_cells = n_cells = int(caps.sum())
        self._cell_slot = np.repeat(np.arange(n_slots), caps)
        # One row per per-cell column: a plan block's rows, then the
        # cursor (t0, p0..., t1, p1..., t1 - t0, p1 - p0...).
        self._cursor_row = _REF + ndim + lanes * _TAIL
        self._pad, steps, cursor_rows = _cell_rows(ndim)
        # A step gathers every lane of a match's tail at its new vertices
        # v and v + 1 (flat offsets of vertex 0, plus v), and writes them
        # with their differences to the cursor rows.
        self._step_rows = steps * n_cells
        self._cursor_rows = cursor_rows * n_cells
        self._cells = np.empty((len(self._pad), n_cells))
        self._cells[:] = self._pad[:, None]
        self._flat = self._cells.reshape(-1)
        self._vertex = np.zeros(n_cells, dtype=np.intp)
        self._slot_plan: list[PredictionPlan | None] = [None] * n_slots
        self._slot_size = np.zeros(n_slots, dtype=np.intp)
        self._slot_h = np.zeros(n_slots)
        self._slot_anchor = np.zeros((n_slots, ndim))
        #: Per slot: its class's width, and its usable and unusable
        #: match counts at the last serve.
        self._slot_width = np.zeros(n_slots, dtype=np.intp)
        self._slot_usable = np.zeros(n_slots, dtype=np.intp)
        self._slot_unusable = np.zeros(n_slots, dtype=np.intp)
        self._n_unusable = -1  # unusable cells at the last serve; -1: recount
        self._slot_grid: list[_Grid] = []
        self._free: dict[int, list[int]] = {}
        self._live_cells = 0  # the capacity of the slots holding rows
        self._terms = terms = np.zeros((lanes, n_cells))
        self._cum = cum = np.empty_like(terms)
        self._grids = []
        row_slot = [0] * len(plans)
        first = 0
        for k, n in layout:
            start = int(self._slot_start[first])
            span = slice(start, start + (n << k))
            shape = (lanes, n, 1 << k)
            grid = _Grid(
                slice(first, first + n),
                terms[:, span].reshape(shape),
                cum[:, span].reshape(shape),
            )
            self._grids.append(grid)
            self._slot_grid += [grid] * n
            rows = [r for r, c in enumerate(classes) if c == k]
            for slot, r in enumerate(rows, first):
                row_slot[r] = slot
                self._place(slot, plans[r])
            width = max(plans[r].n_matches for r in rows)
            grid.resize(len(rows), width)
            self._slot_width[grid.slots] = width
            self._free[k] = list(range(first + len(rows), first + n))
            first += n
        self._restart(slice(None))
        # Serving workspaces: a stack is served once per frame, so every
        # intermediate writes into a fixed buffer (ufunc ``out=``).  Only
        # the returned positions array is freshly allocated per call —
        # callers hand out row views that must outlive the next serve.
        self._t, self._alpha = np.empty((2, n_cells))
        self._mask = np.empty(n_cells, dtype=bool)
        self._set_rows(plans, min_matches, row_slot)

    def _set_rows(
        self,
        plans: list[PredictionPlan],
        min_matches: Sequence[int],
        row_slot: list[int],
    ) -> None:
        """Make ``plans``, held in ``row_slot``, the rows a serve answers."""
        self.plans = plans
        #: Row ``r`` serves only with at least ``min_matches[r]`` usable
        #: matches (always at least one).
        self.min_matches = np.maximum(min_matches, 1)
        self._row_slot = row_slot = np.asarray(row_slot, dtype=np.intp)
        self._row_anchor = self._slot_anchor[row_slot]
        #: Serves read the cells up to the last one any sum reaches.
        self._n_active = int(
            (self._slot_start[row_slot] + self._slot_width[row_slot]).max()
        )
        # Each row's sums: the running sums' last summed cell of its slot.
        last = self._slot_start[row_slot] + np.maximum(
            self._slot_width[row_slot] - 1, 0
        )
        lanes = 1 + self.ndim
        self._row_sums = np.arange(lanes)[:, None] * self._n_cells + last

    def _fit(self, grid: _Grid) -> None:
        """Fit a class's sums to its last live slot and its widest row."""
        sizes = self._slot_size[grid.slots]
        live = sizes.nonzero()[0]
        rows = int(live[-1]) + 1 if live.size else 0
        width = int(sizes.max())
        if (rows, width) != (grid.rows, grid.width):
            grid.resize(rows, width)
            self._slot_width[grid.slots] = width

    def _span(self, slot: int) -> slice:
        start = int(self._slot_start[slot])
        return slice(start, start + int(self._slot_cap[slot]))

    def _place(self, slot: int, plan: PredictionPlan) -> None:
        """Copy ``plan``'s columns to the front of ``slot``."""
        start = int(self._slot_start[slot])
        self._cells[: self._cursor_row, start : start + plan.n_matches] = (
            plan.block
        )
        self._slot_plan[slot] = plan
        self._slot_size[slot] = plan.n_matches
        self._slot_h[slot] = -np.inf
        self._slot_anchor[slot] = plan.anchor
        self._live_cells += int(self._slot_cap[slot])

    def _write(self, slot: int, plan: PredictionPlan) -> None:
        """Place ``plan`` in ``slot``, pad the rest, restart its cursors."""
        self._place(slot, plan)
        span = self._span(slot)
        self._cells[:, span.start + plan.n_matches : span.stop] = self._pad[
            :, None
        ]
        self._reset(slot)

    def _blank(self, slot: int) -> None:
        """Make every cell of a free slot inert."""
        span = self._span(slot)
        self._cells[:, span] = self._pad[:, None]
        self._terms[-1, span] = 0.0
        self._vertex[span] = 0
        self._slot_h[slot] = 0.0
        self._n_unusable = -1

    def _release(self, slot: int) -> None:
        cap = int(self._slot_cap[slot])
        self._slot_plan[slot] = None
        self._slot_size[slot] = 0
        self._free[cap.bit_length() - 1].append(slot)
        self._live_cells -= cap

    def _take(self, k: int) -> int | None:
        """The lowest free slot of class ``k``, else of class ``k + 1``."""
        for c in (k, k + 1):
            free = self._free.get(c)
            if free:
                slot = min(free)
                free.remove(slot)
                return slot
        return None

    def _reset(self, slot: int) -> None:
        """Restart one row: cursors at vertex 0, every match usable."""
        self._restart(self._span(slot))
        self._slot_grid[slot].fresh = True
        self._n_unusable = -1

    def _restart(self, span: slice) -> None:
        """Put the cursors of ``span`` on their first tail segment and
        copy its weights to the weight lane."""
        cells = self._cells
        lanes = 1 + self.ndim
        tail = _REF + self.ndim
        cursor = self._cursor_row
        cells[cursor : cursor + lanes, span] = cells[
            tail : tail + lanes * _TAIL : _TAIL, span
        ]
        cells[cursor + lanes : cursor + 2 * lanes, span] = cells[
            tail + 1 : tail + 1 + lanes * _TAIL : _TAIL, span
        ]
        np.subtract(
            cells[cursor + lanes : cursor + 2 * lanes, span],
            cells[cursor : cursor + lanes, span],
            out=cells[cursor + 2 * lanes : cursor + 3 * lanes, span],
        )
        self._vertex[span] = 0
        self._terms[-1, span] = cells[_WEIGHT, span]

    # -- serving ---------------------------------------------------------------

    def _advance(self, hit: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Step the cursors of ``hit`` (cells with ``t >= t1``) forward.

        Returns the cells still past their segment on the last packed
        pair: their target lies beyond the tail window.
        """
        vertex = self._vertex
        flat = self._flat
        lanes = 1 + self.ndim
        past = []
        while hit.size:
            v = vertex.take(hit)
            at_end = v == _PLAN_TAIL_COLUMNS - 1
            if at_end.any():
                past.append(hit[at_end])
                hit = hit[~at_end]
                v = v[~at_end]
            v += 1
            vertex.put(hit, v)
            v *= self._n_cells
            v += hit
            cursor = np.empty((3 * lanes, len(hit)))
            flat.take(self._step_rows + v, out=cursor[: 2 * lanes])
            np.subtract(
                cursor[lanes : 2 * lanes],
                cursor[:lanes],
                out=cursor[2 * lanes :],
            )
            flat.put(self._cursor_rows + hit, cursor)
            hit = hit.compress(t.take(hit) >= cursor[lanes])
        return np.concatenate(past) if past else hit

    def serve(
        self, horizons: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Serve row ``r`` at ``horizons[r]`` (>= 0) for every row at once.

        Returns ``(served, counts, positions)``: ``counts[r]`` is row
        ``r``'s number of matches with a recorded future that far ahead,
        ``served[r]`` whether that reaches its ``min_matches``, and
        ``positions[r]`` the prediction, only meaningful where served.
        """
        row_slot = self._row_slot
        slot_h = self._slot_h
        # A row restarts its cursors unless its horizon is at least the
        # one it was last served at.
        back = ~np.greater_equal(horizons, slot_h[row_slot])
        if back.any():
            for slot in row_slot[back]:
                self._reset(slot)
        slot_h[row_slot] = horizons
        n = self._n_active
        cells = self._cells[:, :n]
        mask = self._mask[:n]
        ndim = self.ndim
        lanes = 1 + ndim
        cursor = self._cursor_row
        t = slot_h.take(self._cell_slot[:n], out=self._t[:n], mode="clip")
        np.add(cells[_END], t, out=t)
        past = np.greater_equal(t, cells[cursor + lanes], out=mask).nonzero()[0]
        if past.size:
            past = self._advance(past, t)
        alpha = np.subtract(t, cells[cursor], out=self._alpha[:n])
        np.divide(alpha, cells[cursor + 2 * lanes], out=alpha)
        futures = np.multiply(
            cells[cursor + 2 * lanes + 1 : cursor + 3 * lanes],
            alpha,
            out=self._terms[:ndim, :n],
        )
        np.add(futures, cells[cursor + 1 : cursor + lanes], out=futures)
        if past.size:
            # A usable match whose target runs past its packed tail
            # reads its own series (identical by definition, slower).
            slots = self._cell_slot[past]
            j = past - self._slot_start[slots]
            own = (j < self._slot_size[slots]) & (
                t[past] <= cells[_SERIES_END, past]
            )
            for m, slot, jm in zip(past[own], slots[own], j[own]):
                futures[:, m] = self._slot_plan[slot].match_position_at(
                    jm, float(t[m])
                )
        np.subtract(futures, cells[_REF : _REF + ndim], out=futures)
        np.multiply(futures, cells[_WEIGHT], out=futures)
        usable = np.less_equal(t, cells[_SERIES_END], out=mask)
        unusable = np.logical_not(usable, out=usable).nonzero()[0]
        self._terms[:, unusable] = 0.0
        if len(unusable) != self._n_unusable:
            # Between restarts a cell only ever becomes unusable, so an
            # unchanged total means an unchanged set.
            self._n_unusable = len(unusable)
            counts = np.bincount(
                self._cell_slot[unusable], minlength=len(slot_h)
            )
            for slot in (counts != self._slot_unusable).nonzero()[0]:
                self._slot_grid[slot].fresh = True
            self._slot_unusable = counts
            self._slot_usable = self._slot_size - counts
        for grid in self._grids:
            if grid.width:
                terms, cum = grid.views[not grid.fresh]
                terms.cumsum(axis=2, out=cum)
                grid.fresh = False
        sums = self._cum.take(self._row_sums)
        counts = self._slot_usable[row_slot]
        served = counts >= self.min_matches
        anchors = self._row_anchor
        totals = sums[:ndim].T
        weight_sums = sums[ndim]
        if served.all():
            positions = anchors + totals / weight_sums[:, None]
        else:
            positions = np.empty_like(anchors)
            rows = np.nonzero(served)[0]
            positions[rows] = (
                anchors[rows] + totals[rows] / weight_sums[rows, None]
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
    indices = ends + np.arange(_TAIL)[:, None]
    clamped = np.minimum(indices, last)
    block = np.empty((_REF + ndim + (1 + ndim) * _TAIL, n))
    block[_END] = times[ends]
    block[_SERIES_END] = times[last]
    block[_WEIGHT] = weights
    reference = ends if anchor == "last" else base + matches.starts
    block[_REF : _REF + ndim] = positions[reference].T
    tail = block[_REF + ndim :].reshape(1 + ndim, _TAIL, n)
    tail[0] = np.where(indices <= last, times[clamped], np.inf)
    tail[1:] = positions.T[:, clamped]
    return PredictionPlan(
        anchor=anchor_position,
        block=block,
        series=series,
        series_index=series_index,
    )


def _check_horizon(horizon: float) -> None:
    """Refuse a horizon a plan cannot answer: it packs only the future."""
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")


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
        _check_horizon(horizon)
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
        ``horizon`` must be finite and ``>= 0``, as for :meth:`predict`.
        """
        from .model import BreathingState

        _check_horizon(horizon)
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
