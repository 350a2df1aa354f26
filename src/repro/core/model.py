"""Core data model for structured time series.

The paper represents a motion stream as a *piecewise linear representation*
(PLR): an ordered list of vertices, where each vertex carries

* the vertex time (end of the previous line segment, start of the next),
* an n-dimensional spatial position, and
* the breathing state of the line segment that *begins* at the vertex.

This module provides the value types (:class:`BreathingState`,
:class:`Vertex`, :class:`Segment`), the growable :class:`PLRSeries`
container used by the online segmenter and the database, and
:class:`Subsequence`, a lightweight window over a series that exposes the
per-segment features (state signature, durations, amplitudes) consumed by
the similarity measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "BreathingState",
    "Vertex",
    "Segment",
    "PLRSeries",
    "Subsequence",
    "REGULAR_STATES",
    "REGULAR_CYCLE",
    "states_per_cycle",
    "cycles_to_vertices",
    "vertices_to_cycles",
]


class BreathingState(IntEnum):
    """The four motion states of the finite state model.

    ``EX`` (exhale), ``EOE`` (end-of-exhale rest) and ``IN`` (inhale) are the
    regular states; ``IRR`` marks irregular breathing.  The integer values
    match the state index ``k`` used in the paper's stability formula.
    """

    EX = 0
    EOE = 1
    IN = 2
    IRR = 3

    @property
    def is_regular(self) -> bool:
        """Whether this is one of the three regular breathing states."""
        return self is not BreathingState.IRR

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The regular states, in the order they occur within one breathing cycle.
REGULAR_CYCLE: tuple[BreathingState, ...] = (
    BreathingState.EX,
    BreathingState.EOE,
    BreathingState.IN,
)

#: Frozen set of regular states for membership tests.
REGULAR_STATES: frozenset[BreathingState] = frozenset(REGULAR_CYCLE)


def _as_position(position: Sequence[float] | float) -> tuple[float, ...]:
    """Normalise a scalar or sequence position to a tuple of floats."""
    if isinstance(position, (int, float)):
        return (float(position),)
    return tuple(float(p) for p in position)


@dataclass(frozen=True, slots=True)
class Vertex:
    """One PLR vertex: ``(time, position, state)``.

    ``state`` is the breathing state of the line segment that *starts* at
    this vertex.  The final vertex of a stream carries the state of the
    still-open segment (or the last closed one).
    """

    time: float
    position: tuple[float, ...]
    state: BreathingState

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _as_position(self.position))
        object.__setattr__(self, "state", BreathingState(self.state))

    @property
    def ndim(self) -> int:
        """Spatial dimensionality of the position."""
        return len(self.position)

    def position_array(self) -> np.ndarray:
        """The position as a float ndarray (copy)."""
        return np.asarray(self.position, dtype=float)


@dataclass(frozen=True, slots=True)
class Segment:
    """One PLR line segment between two consecutive vertices."""

    start: Vertex
    end: Vertex

    @property
    def state(self) -> BreathingState:
        """State of the segment (stored on its starting vertex)."""
        return self.start.state

    @property
    def duration(self) -> float:
        """Segment duration in seconds."""
        return self.end.time - self.start.time

    @property
    def displacement(self) -> np.ndarray:
        """Vector displacement from start to end position."""
        return self.end.position_array() - self.start.position_array()

    @property
    def amplitude(self) -> float:
        """Euclidean norm of the displacement (the segment amplitude)."""
        return float(np.linalg.norm(self.displacement))

    @property
    def slope(self) -> np.ndarray:
        """Velocity vector (displacement / duration)."""
        duration = self.duration
        if duration <= 0.0:
            raise ValueError("segment has non-positive duration")
        return self.displacement / duration

    def position_at(self, t: float) -> np.ndarray:
        """Linearly interpolate the position at time ``t`` on this segment."""
        duration = self.duration
        if duration <= 0.0:
            return self.start.position_array()
        alpha = (t - self.start.time) / duration
        start = self.start.position_array()
        return start + alpha * (self.end.position_array() - start)


class PLRSeries:
    """A growable piecewise linear representation of one motion stream.

    The series is the unit the database stores (one per treatment session)
    and the structure the online segmenter appends to.  Internally the
    vertices live in Python lists; dense numpy views (``times``,
    ``positions``, ``states``) are cached and invalidated on append, so the
    common read-heavy access pattern stays vectorised.

    Parameters
    ----------
    ndim:
        Spatial dimensionality of positions.  Inferred from the first
        appended vertex when omitted.
    """

    def __init__(self, ndim: int | None = None) -> None:
        self._times: list[float] = []
        self._positions: list[tuple[float, ...]] = []
        self._states: list[BreathingState] = []
        self._ndim = ndim
        self._cache: dict[str, np.ndarray] = {}
        #: Dense columns not yet expanded into the vertex lists (the
        #: snapshot-reopen fast path); ``None`` for list-backed series.
        self._pending: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices: Iterable[Vertex]) -> "PLRSeries":
        """Build a series from an iterable of vertices."""
        series = cls()
        for vertex in vertices:
            series.append(vertex)
        return series

    @classmethod
    def from_dense(
        cls,
        times: np.ndarray,
        positions: np.ndarray,
        states: np.ndarray,
    ) -> "PLRSeries":
        """Adopt dense columns without materialising per-vertex objects.

        This is the storage layer's snapshot-reopen fast path: the three
        arrays (typically read-only memory maps of snapshot columns)
        become the series' cached dense views directly, so constructing
        a million-vertex series costs O(1).  The per-vertex Python lists
        are materialised lazily, on the first mutation or vertex access
        — read paths that stay columnar (the signature index, the
        matcher, the similarity kernels) never pay for them.

        The columns must satisfy the usual invariants (aligned lengths,
        strictly increasing times); they are trusted, not re-validated.
        """
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[:, np.newaxis]
        states = np.asarray(states, dtype=np.int8)
        if not (len(times) == len(positions) == len(states)):
            raise ValueError("times, positions and states must align")
        series = cls(ndim=int(positions.shape[1]) if len(times) else None)
        if len(times):
            series._pending = (times, positions, states)
            for array in (times, positions, states):
                if array.flags.writeable:
                    array.setflags(write=False)
            series._cache = {
                "times": times,
                "positions": positions,
                "states": states,
            }
        return series

    def _materialise(self) -> None:
        """Expand pending dense columns into the mutable vertex lists."""
        if self._pending is None:
            return
        times, positions, states = self._pending
        self._pending = None
        self._times = times.tolist()
        self._positions = [tuple(row) for row in positions.tolist()]
        self._states = states.tolist()

    @classmethod
    def from_arrays(
        cls,
        times: Sequence[float],
        positions: Sequence[Sequence[float]] | Sequence[float],
        states: Sequence[BreathingState | int],
    ) -> "PLRSeries":
        """Build a series from parallel arrays of times, positions, states."""
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[:, np.newaxis]
        if not (len(times) == len(positions) == len(states)):
            raise ValueError("times, positions and states must align")
        series = cls(ndim=positions.shape[1] if len(times) else None)
        for t, pos, state in zip(times, positions, states):
            series.append(Vertex(float(t), tuple(pos), BreathingState(state)))
        return series

    def to_payload(self) -> dict:
        """The JSON form of the series: its three columns as lists.

        The one JSON form of a series — snapshot files, checkpoints and
        the shard wire all use it.  Floats round-trip bit-exactly
        through JSON's ``repr``.
        """
        return {
            "times": self.times.tolist(),
            "positions": self.positions.tolist(),
            "states": self.states.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PLRSeries":
        """Inverse of :meth:`to_payload`, checked in one pass per column.

        Raises :class:`ValueError` unless the times are finite and
        strictly increasing, the positions are finite rows of one width
        (one row per time) and every state is in the alphabet; the
        columns are then adopted like :meth:`from_dense`'s.
        """
        times = np.asarray(payload["times"], dtype=float)
        positions = np.asarray(payload["positions"], dtype=float)
        states = np.asarray(payload["states"])
        n = len(times)
        if not (
            times.shape == states.shape == (n,)
            and (
                positions.shape == (0,)
                if n == 0
                else positions.ndim == 2 and positions.shape[1] > 0
            )
            and len(positions) == n
            and np.isfinite(times).all()
            and (np.diff(times) > 0).all()
            and np.isfinite(positions).all()
        ):
            raise ValueError(
                "a series needs finite, strictly increasing times and one "
                "finite position row per time"
            )
        if n and (
            states.dtype.kind != "i"
            or states.min() < 0
            or states.max() >= len(BreathingState)
        ):
            raise ValueError("series states must be in the state alphabet")
        return cls.from_dense(times, positions, states.astype(np.int8))

    def append(self, vertex: Vertex) -> None:
        """Append one vertex; times must be strictly increasing."""
        if self._pending is not None:
            self._materialise()
        if self._ndim is None:
            self._ndim = vertex.ndim
        elif vertex.ndim != self._ndim:
            raise ValueError(
                f"vertex has {vertex.ndim} dims, series has {self._ndim}"
            )
        if self._times and vertex.time <= self._times[-1]:
            raise ValueError(
                f"vertex time {vertex.time} not after {self._times[-1]}"
            )
        self._times.append(vertex.time)
        self._positions.append(vertex.position)
        self._states.append(vertex.state)
        self._cache.clear()

    def replace_last(self, vertex: Vertex) -> None:
        """Replace the final vertex (used by the online segmenter while the
        current segment is still open)."""
        if self._pending is not None:
            self._materialise()
        if not self._times:
            raise IndexError("series is empty")
        if len(self._times) >= 2 and vertex.time <= self._times[-2]:
            raise ValueError("replacement vertex breaks time ordering")
        self._times[-1] = vertex.time
        self._positions[-1] = vertex.position
        self._states[-1] = vertex.state
        self._cache.clear()

    # -- size and access ---------------------------------------------------

    def __len__(self) -> int:
        if self._pending is not None:
            return len(self._pending[0])
        return len(self._times)

    @property
    def ndim(self) -> int:
        """Spatial dimensionality (0 while the series is empty and untyped)."""
        return self._ndim or 0

    @property
    def n_segments(self) -> int:
        """Number of closed line segments (vertices - 1)."""
        return max(0, len(self) - 1)

    def vertex(self, i: int) -> Vertex:
        """The ``i``-th vertex (supports negative indexing)."""
        if self._pending is not None:
            self._materialise()
        return Vertex(self._times[i], self._positions[i], self._states[i])

    def __getitem__(self, i: int) -> Vertex:
        return self.vertex(i)

    def __iter__(self) -> Iterator[Vertex]:
        for i in range(len(self)):
            yield self.vertex(i)

    def segment(self, i: int) -> Segment:
        """The ``i``-th segment, spanning vertices ``i`` and ``i + 1``."""
        if i < 0:
            i += self.n_segments
        if not 0 <= i < self.n_segments:
            raise IndexError(f"segment index {i} out of range")
        return Segment(self.vertex(i), self.vertex(i + 1))

    def segments(self) -> Iterator[Segment]:
        """Iterate over all closed segments."""
        for i in range(self.n_segments):
            yield self.segment(i)

    # -- dense views ------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Vertex times as a read-only float array."""
        return self._cached("times", lambda: np.asarray(self._times, float))

    @property
    def positions(self) -> np.ndarray:
        """Vertex positions as a read-only ``(n, ndim)`` float array."""
        return self._cached(
            "positions", lambda: np.asarray(self._positions, float)
        )

    @property
    def states(self) -> np.ndarray:
        """Vertex states as a read-only int8 array."""
        return self._cached(
            "states",
            lambda: np.asarray([int(s) for s in self._states], np.int8),
        )

    @property
    def durations(self) -> np.ndarray:
        """Per-segment durations, shape ``(n_segments,)``."""
        return self._cached("durations", lambda: np.diff(self.times))

    @property
    def amplitudes(self) -> np.ndarray:
        """Per-segment amplitudes (displacement norms)."""
        return self._cached(
            "amplitudes",
            lambda: np.linalg.norm(np.diff(self.positions, axis=0), axis=1),
        )

    def _cached(self, key: str, build) -> np.ndarray:
        array = self._cache.get(key)
        if array is None:
            array = build()
            array.setflags(write=False)
            self._cache[key] = array
        return array

    # -- geometry ----------------------------------------------------------

    @property
    def start_time(self) -> float:
        """Time of the first vertex."""
        if self._pending is not None:
            return float(self._pending[0][0])
        return self._times[0]

    @property
    def end_time(self) -> float:
        """Time of the last vertex."""
        if self._pending is not None:
            return float(self._pending[0][-1])
        return self._times[-1]

    @property
    def duration(self) -> float:
        """Total covered time span in seconds."""
        if len(self) < 2:
            return 0.0
        return self.end_time - self.start_time

    def position_at(self, t: float) -> np.ndarray:
        """Position of the PLR polyline at time ``t``.

        Times outside the covered span clamp to the first/last vertex
        position (constant extrapolation), which is the behaviour the
        prediction evaluator needs near stream boundaries.
        """
        if not len(self):
            raise ValueError("series is empty")
        times = self.times
        if t <= times[0]:
            return self.positions[0].copy()
        if t >= times[-1]:
            return self.positions[-1].copy()
        i = int(np.searchsorted(times, t, side="right")) - 1
        return self.segment(i).position_at(t)

    def segment_index_at(self, t: float) -> int:
        """Index of the segment covering time ``t`` (clamped at the ends)."""
        if self.n_segments == 0:
            raise ValueError("series has no segments")
        times = self.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        return min(max(i, 0), self.n_segments - 1)

    # -- subsequences ------------------------------------------------------

    def subsequence(self, start: int, stop: int) -> "Subsequence":
        """The window over vertices ``[start, stop)`` as a subsequence."""
        return Subsequence(self, start, stop)

    def suffix(self, n_vertices: int) -> "Subsequence":
        """The subsequence covering the most recent ``n_vertices`` vertices."""
        n = len(self)
        return self.subsequence(max(0, n - n_vertices), n)

    def subsequences(self, length: int) -> Iterator["Subsequence"]:
        """All contiguous subsequences of ``length`` vertices, oldest first."""
        for start in range(0, len(self) - length + 1):
            yield self.subsequence(start, start + length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PLRSeries(n_vertices={len(self)}, ndim={self.ndim}, "
            f"duration={self.duration:.1f}s)"
        )


@dataclass(frozen=True)
class Subsequence:
    """A contiguous window of a :class:`PLRSeries`.

    The window spans vertices ``[start, stop)`` and therefore
    ``stop - start - 1`` line segments.  Feature arrays are computed from
    the parent series' cached dense views, so constructing subsequences is
    cheap.
    """

    series: PLRSeries
    start: int
    stop: int
    _features: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        n = len(self.series)
        if not (0 <= self.start < self.stop <= n):
            raise ValueError(
                f"invalid window [{self.start}, {self.stop}) on a series "
                f"of {n} vertices"
            )

    # -- sizes -------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices in the window."""
        return self.stop - self.start

    @property
    def n_segments(self) -> int:
        """Number of line segments in the window."""
        return self.n_vertices - 1

    def __len__(self) -> int:
        return self.n_vertices

    # -- feature arrays ----------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Vertex times within the window."""
        return self.series.times[self.start : self.stop]

    @property
    def positions(self) -> np.ndarray:
        """Vertex positions within the window."""
        return self.series.positions[self.start : self.stop]

    @property
    def states(self) -> np.ndarray:
        """Vertex states within the window (int8)."""
        return self.series.states[self.start : self.stop]

    @property
    def durations(self) -> np.ndarray:
        """Per-segment durations within the window."""
        return self.series.durations[self.start : self.stop - 1]

    @property
    def amplitudes(self) -> np.ndarray:
        """Per-segment amplitudes within the window."""
        return self.series.amplitudes[self.start : self.stop - 1]

    @property
    def segment_states(self) -> np.ndarray:
        """States of the window's segments (state of each starting vertex)."""
        return self.series.states[self.start : self.stop - 1]

    @property
    def state_signature(self) -> tuple[int, ...]:
        """The segment-state sequence as a hashable tuple.

        Two subsequences are comparable under Definition 2 only when their
        signatures are identical.
        """
        signature = self._features.get("signature")
        if signature is None:
            signature = tuple(int(s) for s in self.segment_states)
            self._features["signature"] = signature
        return signature

    # -- vertices ----------------------------------------------------------

    def vertex(self, i: int) -> Vertex:
        """The ``i``-th vertex of the window (0-based within the window)."""
        if i < 0:
            i += self.n_vertices
        if not 0 <= i < self.n_vertices:
            raise IndexError(f"vertex index {i} out of range")
        return self.series.vertex(self.start + i)

    @property
    def first_vertex(self) -> Vertex:
        """Oldest vertex of the window."""
        return self.vertex(0)

    @property
    def last_vertex(self) -> Vertex:
        """Most recent vertex of the window."""
        return self.vertex(self.n_vertices - 1)

    @property
    def duration(self) -> float:
        """Covered time span of the window in seconds."""
        return float(self.times[-1] - self.times[0])

    def cycle_count(self, anchor: BreathingState = BreathingState.EX) -> int:
        """Number of breathing cycles in the window.

        A cycle is counted per occurrence of the ``anchor`` state among the
        window's segments (the paper measures query lengths in breathing
        cycles).
        """
        return int(np.count_nonzero(self.segment_states == int(anchor)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = "".join(BreathingState(s).name[0] for s in self.segment_states)
        return (
            f"Subsequence([{self.start}:{self.stop}), "
            f"segments={self.n_segments}, states={states!r})"
        )


def states_per_cycle() -> int:
    """Number of regular states per breathing cycle (3: EX, EOE, IN)."""
    return len(REGULAR_CYCLE)


def cycles_to_vertices(n_cycles: int) -> int:
    """Vertex count of a window spanning ``n_cycles`` regular cycles.

    A regular cycle contributes three segments; a window of ``c`` cycles has
    ``3c`` segments and ``3c + 1`` vertices.
    """
    if n_cycles < 0:
        raise ValueError("cycle count must be non-negative")
    return states_per_cycle() * n_cycles + 1


def vertices_to_cycles(n_vertices: int) -> float:
    """Inverse of :func:`cycles_to_vertices` (may be fractional)."""
    return max(0, n_vertices - 1) / states_per_cycle()
