"""Online piecewise-linear segmentation with state classification.

Implements the streaming segmentation algorithm the paper adopts from its
reference [26]: every raw sample is processed in constant time, the noisy
signal is denoised on the fly, and the stream is reduced to a piecewise
linear representation (PLR) in which **each line segment is one breathing
state** — EX (exhale), EOE (end-of-exhale rest), IN (inhale) or IRR
(irregular).  The finite state automaton validates every transition;
transitions that break the regular cycle, implausibly long rests and
implausibly shallow cycles are coerced to IRR.

Pipeline per raw point:

1. **despike** — clamp per-axis jumps that exceed a velocity gate (spike
   noise is an acquisition artifact, Fig. 3d);
2. **smooth** — exponential moving average tuned to suppress cardiac-motion
   oscillation while preserving the breathing waveform (Fig. 3c);
3. **classify** — estimate the local velocity with a short sliding
   least-squares fit and map it to a state proposal (rising = IN, falling =
   EX, flat near the exhale baseline = EOE), with adaptive amplitude and
   velocity scales so the same configuration works across patients;
4. **debounce + commit** — a state change must persist for a minimum
   duration before the open segment is closed; closing emits a PLR vertex
   and runs the automaton and the plausibility gates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fsm import FiniteStateAutomaton, respiratory_fsa
from .model import BreathingState, PLRSeries, Vertex

__all__ = ["SegmenterConfig", "OnlineSegmenter", "segment_signal"]


@dataclass(frozen=True)
class SegmenterConfig:
    """Tuning parameters of :class:`OnlineSegmenter`.

    Defaults are calibrated for 30 Hz respiratory data with ~4 s cycles and
    5-20 mm amplitude — the regime of the paper's dataset.

    Attributes
    ----------
    smoothing_seconds:
        EMA time constant of the denoising filter.  0.25 s attenuates the
        ~1.2 Hz cardiac component strongly while barely touching the
        ~0.25 Hz breathing fundamental.
    velocity_window:
        Length (s) of the sliding least-squares window used for the local
        velocity estimate.
    flat_velocity_fraction:
        A sample is "flat" when ``|velocity| < fraction * v_scale``, where
        ``v_scale`` is a decaying running peak of ``|velocity|``.
    low_position_fraction:
        A flat sample proposes EOE only when the position sits below this
        fraction of the adaptive position range (flat near the *peak* is the
        brief end-of-inhale turnaround, not a rest state).
    min_state_duration:
        Debounce: a proposed state change must persist this long (s) before
        the open segment is closed.
    max_eoe_duration:
        A rest longer than this (s) is re-labelled IRR (e.g. breath hold).
    min_cycle_amplitude_fraction:
        An IN/EX segment whose amplitude falls below this fraction of the
        adaptive range is re-labelled IRR (shallow erratic breathing).
    spike_velocity:
        Per-axis despiking gate in mm/s.
    range_decay_seconds:
        Horizon of the adaptive position-range and velocity-scale trackers.
    flat_low_gate:
        Require flat samples to sit low in the range before proposing the
        rest state.  True for respiration (rest = end of *exhale*); domains
        whose dwell state occurs at both extremes (robot arms, tides)
        disable it.
    """

    smoothing_seconds: float = 0.25
    velocity_window: float = 0.40
    flat_velocity_fraction: float = 0.18
    low_position_fraction: float = 0.45
    min_state_duration: float = 0.20
    max_eoe_duration: float = 3.5
    min_cycle_amplitude_fraction: float = 0.25
    spike_velocity: float = 80.0
    range_decay_seconds: float = 20.0
    flat_low_gate: bool = True

    def __post_init__(self) -> None:
        if self.smoothing_seconds <= 0 or self.velocity_window <= 0:
            raise ValueError("filter windows must be positive")
        if not 0 < self.flat_velocity_fraction < 1:
            raise ValueError("flat_velocity_fraction must be in (0, 1)")
        if self.min_state_duration < 0:
            raise ValueError("min_state_duration must be non-negative")


class _SlidingSlope:
    """Least-squares slope over a sliding time window, O(1) per update."""

    def __init__(self, window: float) -> None:
        self.window = window
        self._points: deque[tuple[float, float]] = deque()
        self._n = 0
        self._sum_t = 0.0
        self._sum_x = 0.0
        self._sum_tt = 0.0
        self._sum_tx = 0.0

    def add(self, t: float, x: float) -> None:
        """Push a sample and evict samples older than the window."""
        self._points.append((t, x))
        self._n += 1
        self._sum_t += t
        self._sum_x += x
        self._sum_tt += t * t
        self._sum_tx += t * x
        while self._points and t - self._points[0][0] > self.window:
            t0, x0 = self._points.popleft()
            self._n -= 1
            self._sum_t -= t0
            self._sum_x -= x0
            self._sum_tt -= t0 * t0
            self._sum_tx -= t0 * x0

    def slope(self) -> float:
        """Current least-squares slope (0.0 until two samples span time)."""
        if self._n < 2:
            return 0.0
        denom = self._n * self._sum_tt - self._sum_t * self._sum_t
        if denom <= 1e-12:
            return 0.0
        return (self._n * self._sum_tx - self._sum_t * self._sum_x) / denom


class _DecayingRange:
    """Adaptive low/high tracker that relaxes toward the signal."""

    def __init__(self, decay_seconds: float) -> None:
        self.decay_seconds = decay_seconds
        self.low: float | None = None
        self.high: float | None = None

    def update(self, x: float, dt: float) -> None:
        """Fold in one sample observed ``dt`` seconds after the previous."""
        if self.low is None or self.high is None:
            self.low = self.high = x
            return
        relax = min(1.0, dt / self.decay_seconds)
        self.low = min(x, self.low + relax * (x - self.low))
        self.high = max(x, self.high - relax * (self.high - x))

    @property
    def span(self) -> float:
        """Current tracked peak-to-peak range."""
        if self.low is None or self.high is None:
            return 0.0
        return self.high - self.low


class _DecayingPeak:
    """Adaptive running peak of a non-negative signal."""

    def __init__(self, decay_seconds: float) -> None:
        self.decay_seconds = decay_seconds
        self.peak = 0.0

    def update(self, value: float, dt: float) -> float:
        """Fold in one sample and return the current peak."""
        relax = min(1.0, dt / self.decay_seconds)
        self.peak = max(value, self.peak * (1.0 - relax))
        return self.peak


class OnlineSegmenter:
    """Streaming raw points -> PLR vertices with breathing states.

    Feed raw samples with :meth:`add_point`; every committed state
    transition appends a vertex to :attr:`series` and is also returned to
    the caller so downstream consumers (query generation, prediction) can
    react per vertex.  :meth:`finish` closes the trailing open segment.

    Parameters
    ----------
    config:
        Tuning parameters; the defaults suit 30 Hz respiratory data.
    fsa:
        Transition automaton; defaults to the paper's respiratory FSA.
        Supplying a different automaton (plus a custom classifier via
        subclassing) is how the Section 6 generalisation reuses this class.
    prefilter:
        Optional online filter (see :mod:`repro.core.filters`) applied to
        each raw sample before the built-in despike/smooth stages — e.g. a
        cardiac notch filter (the paper's future-work noise modelling).
    on_amend:
        Optional callback invoked with the replacement vertex whenever an
        already-committed vertex is re-labelled by a plausibility gate
        (:meth:`PLRSeries.replace_last`).  The vertex log uses this to
        journal the amendment, so crash replay reproduces the live
        series' states exactly.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When set, the segmenter
        counts raw points, committed vertices (total and per state) and
        gate amendments; when ``None`` (the default) the only cost is
        one ``is None`` check per sample.
    """

    def __init__(
        self,
        config: SegmenterConfig | None = None,
        fsa: FiniteStateAutomaton | None = None,
        prefilter=None,
        on_amend=None,
        telemetry=None,
    ) -> None:
        self.config = config or SegmenterConfig()
        self.fsa = fsa or respiratory_fsa()
        self.prefilter = prefilter
        self.on_amend = on_amend
        self.series = PLRSeries()

        self._t = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._c_points = registry.counter("segmenter.points")
            self._c_vertices = registry.counter("segmenter.vertices")
            self._c_amends = registry.counter("segmenter.amends")
            self._c_state = {
                state: registry.counter(
                    f"segmenter.state.{state.name.lower()}"
                )
                for state in BreathingState
            }

        self._last_time: float | None = None
        self._smoothed: np.ndarray | None = None
        self._raw_prev: np.ndarray | None = None
        # Python-float mirrors of the 1-d despike/smooth state, driving
        # the scalar fast path in add_point (None until the array stages
        # have initialised, or n-axis streams: always the array path).
        self._prev_s: float | None = None
        self._smoothed_s: float | None = None
        self._slope = _SlidingSlope(self.config.velocity_window)
        self._range = _DecayingRange(self.config.range_decay_seconds)
        self._vscale = _DecayingPeak(self.config.range_decay_seconds)

        self._current_state: BreathingState | None = None
        self._segment_start: tuple[float, np.ndarray] | None = None
        self._pending_state: BreathingState | None = None
        self._pending_since: float | None = None
        self._pending_position: np.ndarray | None = None

    # -- public API ----------------------------------------------------------

    @property
    def current_state(self) -> BreathingState | None:
        """State of the open segment (``None`` before warm-up)."""
        return self._current_state

    def add_point(self, t: float, position: Sequence[float] | float) -> list[Vertex]:
        """Process one raw sample; return vertices committed by this sample."""
        if (
            type(position) is not np.ndarray
            or position.ndim != 1
            or position.dtype != np.float64
        ):
            position = np.atleast_1d(np.asarray(position, dtype=float))
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(f"time {t} not after previous sample {self._last_time}")

        if self.prefilter is not None:
            position = np.atleast_1d(
                np.asarray(self.prefilter(t, position), dtype=float)
            )
        dt = 0.0 if self._last_time is None else t - self._last_time
        if dt > 0.0 and self._prev_s is not None and position.shape == (1,):
            # Scalar fast path for single-axis streams: the same IEEE
            # double despike/smooth arithmetic as the array stages below
            # (bit-for-bit), computed in Python floats to skip per-sample
            # ufunc dispatch; the array state mirrors stay in sync.
            p = position.item()
            max_step = self.config.spike_velocity * dt
            step = p - self._prev_s
            if step > max_step:
                step = max_step
            elif step < -max_step:
                step = -max_step
            clean_s = self._prev_s + step
            self._prev_s = clean_s
            self._raw_prev[0] = clean_s
            alpha = dt / (self.config.smoothing_seconds + dt)
            x = self._smoothed_s
            x = x + alpha * (clean_s - x)
            self._smoothed_s = x
            smoothed = self._smoothed
            smoothed[0] = x
        else:
            clean = self._despike(position, dt)
            smoothed = self._smooth(clean, dt)
            x = float(smoothed[0])
            if len(smoothed) == 1:
                self._prev_s = float(self._raw_prev[0])
                self._smoothed_s = x
        self._last_time = t

        self._slope.add(t, x)
        self._range.update(x, dt)
        velocity = self._slope.slope()
        self._vscale.update(abs(velocity), dt)

        if self._t is not None:
            self._c_points.inc()

        proposal = self._classify(x, velocity)
        return self._advance(t, smoothed, proposal)

    def extend(self, times: Sequence[float], values: np.ndarray) -> list[Vertex]:
        """Replay a batch of raw samples; return all committed vertices."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        committed: list[Vertex] = []
        for i, t in enumerate(times):
            committed.extend(self.add_point(float(t), values[i]))
        return committed

    def finish(self) -> list[Vertex]:
        """Close the trailing open segment with a final vertex."""
        if (
            self._current_state is None
            or self._last_time is None
            or self._smoothed is None
        ):
            return []
        if self.series and self._last_time <= self.series[-1].time:
            return []
        final = Vertex(
            self._last_time, tuple(self._smoothed), self._current_state
        )
        self.series.append(final)
        self._count_vertex(final.state)
        return [final]

    # -- checkpointing ---------------------------------------------------------

    def state_payload(self) -> dict:
        """The segmenter's full resumable state as a JSON-able payload.

        Everything needed to continue segmenting from the next raw
        sample: the committed series, the despike/smooth filter state,
        the sliding-slope running sums (carried exactly — Python float
        ``repr`` round-trips bit-exactly through JSON), the adaptive
        range/velocity trackers and the open-segment/debounce state.
        Feeding the same samples after :meth:`restore_state` commits the
        same vertices, bit for bit, as the uninterrupted segmenter.
        """
        slope = self._slope
        return {
            "series": self.series.to_payload(),
            "last_time": self._last_time,
            "smoothed": (
                None if self._smoothed is None else self._smoothed.tolist()
            ),
            "raw_prev": (
                None if self._raw_prev is None else self._raw_prev.tolist()
            ),
            "prev_s": self._prev_s,
            "smoothed_s": self._smoothed_s,
            "slope": {
                "points": [[t, x] for t, x in slope._points],
                "n": slope._n,
                "sum_t": slope._sum_t,
                "sum_x": slope._sum_x,
                "sum_tt": slope._sum_tt,
                "sum_tx": slope._sum_tx,
            },
            "range": {"low": self._range.low, "high": self._range.high},
            "vscale": self._vscale.peak,
            "current_state": (
                None if self._current_state is None else int(self._current_state)
            ),
            "segment_start": (
                None
                if self._segment_start is None
                else [self._segment_start[0], self._segment_start[1].tolist()]
            ),
            "pending_state": (
                None if self._pending_state is None else int(self._pending_state)
            ),
            "pending_since": self._pending_since,
            "pending_position": (
                None
                if self._pending_position is None
                else self._pending_position.tolist()
            ),
        }

    def restore_state(self, payload: dict) -> list[Vertex]:
        """Adopt a :meth:`state_payload` checkpoint on a fresh segmenter.

        Appends the checkpointed vertices to :attr:`series` (which must
        be empty — the live stream was just recreated) and returns them
        so the caller can re-journal the restored prefix for durability.
        """
        if len(self.series):
            raise ValueError("restore_state requires an empty series")
        restored = list(PLRSeries.from_payload(payload["series"]))
        for vertex in restored:
            self.series.append(vertex)
        self._last_time = payload["last_time"]
        self._smoothed = (
            None
            if payload["smoothed"] is None
            else np.asarray(payload["smoothed"], dtype=float)
        )
        self._raw_prev = (
            None
            if payload["raw_prev"] is None
            else np.asarray(payload["raw_prev"], dtype=float)
        )
        self._prev_s = payload["prev_s"]
        self._smoothed_s = payload["smoothed_s"]
        slope_state = payload["slope"]
        slope = self._slope
        slope._points.clear()
        slope._points.extend(
            (float(t), float(x)) for t, x in slope_state["points"]
        )
        slope._n = int(slope_state["n"])
        slope._sum_t = slope_state["sum_t"]
        slope._sum_x = slope_state["sum_x"]
        slope._sum_tt = slope_state["sum_tt"]
        slope._sum_tx = slope_state["sum_tx"]
        self._range.low = payload["range"]["low"]
        self._range.high = payload["range"]["high"]
        self._vscale.peak = payload["vscale"]
        self._current_state = (
            None
            if payload["current_state"] is None
            else BreathingState(int(payload["current_state"]))
        )
        self._segment_start = (
            None
            if payload["segment_start"] is None
            else (
                float(payload["segment_start"][0]),
                np.asarray(payload["segment_start"][1], dtype=float),
            )
        )
        self._pending_state = (
            None
            if payload["pending_state"] is None
            else BreathingState(int(payload["pending_state"]))
        )
        self._pending_since = payload["pending_since"]
        self._pending_position = (
            None
            if payload["pending_position"] is None
            else np.asarray(payload["pending_position"], dtype=float)
        )
        return restored

    # -- pipeline stages -------------------------------------------------------

    def _despike(self, position: np.ndarray, dt: float) -> np.ndarray:
        """Clamp per-axis jumps beyond the spike velocity gate."""
        if self._raw_prev is None or dt <= 0.0:
            self._raw_prev = position.copy()
            return position
        max_step = self.config.spike_velocity * dt
        # minimum(maximum(...)) is what np.clip computes, minus the
        # fromnumeric wrapper that dominates at one sample per call.
        step = np.minimum(
            np.maximum(position - self._raw_prev, -max_step), max_step
        )
        clean = self._raw_prev + step
        self._raw_prev = clean
        return clean

    def _smooth(self, position: np.ndarray, dt: float) -> np.ndarray:
        """Exponential moving average denoising."""
        if self._smoothed is None or dt <= 0.0:
            self._smoothed = position.copy()
        else:
            alpha = dt / (self.config.smoothing_seconds + dt)
            self._smoothed = self._smoothed + alpha * (position - self._smoothed)
        return self._smoothed

    def _classify(self, x: float, velocity: float) -> BreathingState | None:
        """Map the local (position, velocity) to a state proposal."""
        v_scale = self._vscale.peak
        if v_scale <= 1e-9:
            return None
        v_flat = self.config.flat_velocity_fraction * v_scale
        if velocity >= v_flat:
            return BreathingState.IN
        if velocity <= -v_flat:
            return BreathingState.EX
        if not self.config.flat_low_gate:
            return BreathingState.EOE
        span = self._range.span
        if span > 0.0 and self._range.low is not None:
            threshold = self._range.low + self.config.low_position_fraction * span
            if x <= threshold:
                return BreathingState.EOE
        # Flat near the peak: the brief end-of-inhale turnaround.  Extend
        # the current segment rather than inventing a state.
        return self._current_state

    def _advance(
        self, t: float, position: np.ndarray, proposal: BreathingState | None
    ) -> list[Vertex]:
        """Debounce the proposal and commit a transition when it persists."""
        if proposal is None:
            return []

        if self._current_state is None:
            # Cold start: open the first segment immediately.
            self._current_state = proposal
            self._segment_start = (t, position.copy())
            self.series.append(Vertex(t, tuple(position), proposal))
            self._count_vertex(proposal)
            self._clear_pending()
            return [self.series[-1]]

        if proposal == self._current_state:
            self._clear_pending()
            return []

        if proposal != self._pending_state:
            self._pending_state = proposal
            self._pending_since = t
            self._pending_position = position.copy()

        assert self._pending_since is not None
        if t - self._pending_since < self.config.min_state_duration:
            return []

        return self._commit_transition()

    def _commit_transition(self) -> list[Vertex]:
        """Close the open segment at the debounced transition point."""
        assert self._pending_state is not None
        assert self._pending_since is not None
        assert self._pending_position is not None
        assert self._segment_start is not None

        t_cut = self._pending_since
        x_cut = self._pending_position
        closed_state = self._apply_gates(t_cut, x_cut)

        if closed_state != self.series[-1].state:
            last = self.series[-1]
            amended = Vertex(last.time, last.position, closed_state)
            self.series.replace_last(amended)
            if self._t is not None:
                self._c_amends.inc()
            if self.on_amend is not None:
                self.on_amend(amended)

        proposed = self._pending_state
        if closed_state == self.fsa.irregular or self.fsa.is_regular_transition(
            closed_state, proposed
        ):
            new_state = proposed
        else:
            new_state = BreathingState.IRR

        if t_cut <= self.series[-1].time:
            # Degenerate zero-length segment; just adopt the new state.
            self._current_state = new_state
            self._segment_start = (self.series[-1].time, x_cut.copy())
            self._clear_pending()
            return []

        vertex = Vertex(t_cut, tuple(x_cut), new_state)
        self.series.append(vertex)
        self._count_vertex(new_state)
        self._current_state = new_state
        self._segment_start = (t_cut, x_cut.copy())
        self._clear_pending()
        return [vertex]

    def _apply_gates(self, t_cut: float, x_cut: np.ndarray) -> BreathingState:
        """Plausibility gates on the segment being closed; may yield IRR."""
        assert self._segment_start is not None
        assert self._current_state is not None
        start_t, start_x = self._segment_start
        duration = t_cut - start_t
        amplitude = float(np.linalg.norm(x_cut - start_x))
        state = self._current_state

        if state == BreathingState.EOE and duration > self.config.max_eoe_duration:
            return BreathingState.IRR
        if state in (BreathingState.IN, BreathingState.EX):
            span = self._range.span
            if span > 0.0 and amplitude < (
                self.config.min_cycle_amplitude_fraction * span
            ):
                return BreathingState.IRR
        return state

    def _count_vertex(self, state: BreathingState) -> None:
        """Telemetry bookkeeping for one committed vertex (cold path)."""
        if self._t is not None:
            self._c_vertices.inc()
            self._c_state[state].inc()

    def _clear_pending(self) -> None:
        self._pending_state = None
        self._pending_since = None
        self._pending_position = None


def segment_signal(
    times: Sequence[float],
    values: np.ndarray,
    config: SegmenterConfig | None = None,
    prefilter=None,
) -> PLRSeries:
    """Segment a complete raw signal offline (replay through the streamer).

    Parameters
    ----------
    times:
        Sample times in seconds.
    values:
        Samples, shape ``(n,)`` or ``(n, ndim)``.
    config:
        Optional segmenter tuning.
    prefilter:
        Optional online pre-filter (see :mod:`repro.core.filters`).

    Returns
    -------
    PLRSeries
        The committed PLR including the trailing segment closure.
    """
    segmenter = OnlineSegmenter(config, prefilter=prefilter)
    segmenter.extend(times, values)
    segmenter.finish()
    return segmenter.series
