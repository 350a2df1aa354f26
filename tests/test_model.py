"""Unit tests for the core PLR data model."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import (
    BreathingState,
    PLRSeries,
    Segment,
    Vertex,
    cycles_to_vertices,
    vertices_to_cycles,
)

from conftest import EOE, EX, IN, IRR, make_series


class TestBreathingState:
    def test_four_states(self):
        assert len(BreathingState) == 4

    def test_regularity(self):
        assert EX.is_regular and EOE.is_regular and IN.is_regular
        assert not IRR.is_regular

    def test_int_values_stable(self):
        assert [int(s) for s in (EX, EOE, IN, IRR)] == [0, 1, 2, 3]


class TestVertex:
    def test_scalar_position_normalised(self):
        v = Vertex(1.0, 5.0, EX)
        assert v.position == (5.0,)
        assert v.ndim == 1

    def test_multidim_position(self):
        v = Vertex(0.0, (1.0, 2.0, 3.0), IN)
        assert v.ndim == 3
        np.testing.assert_allclose(v.position_array(), [1.0, 2.0, 3.0])

    def test_state_coerced(self):
        v = Vertex(0.0, 1.0, 2)
        assert v.state is IN

    def test_frozen(self):
        v = Vertex(0.0, 1.0, EX)
        with pytest.raises(AttributeError):
            v.time = 2.0


class TestSegment:
    def test_basic_geometry(self):
        seg = Segment(Vertex(0.0, 0.0, IN), Vertex(2.0, 10.0, EX))
        assert seg.state is IN
        assert seg.duration == 2.0
        assert seg.amplitude == 10.0
        np.testing.assert_allclose(seg.slope, [5.0])

    def test_amplitude_is_norm(self):
        seg = Segment(Vertex(0.0, (0.0, 0.0), IN), Vertex(1.0, (3.0, 4.0), EX))
        assert seg.amplitude == pytest.approx(5.0)

    def test_position_interpolation(self):
        seg = Segment(Vertex(0.0, 0.0, IN), Vertex(2.0, 10.0, EX))
        np.testing.assert_allclose(seg.position_at(1.0), [5.0])

    def test_zero_duration_slope_raises(self):
        seg = Segment(Vertex(0.0, 0.0, IN), Vertex(0.0, 1.0, EX))
        with pytest.raises(ValueError):
            _ = seg.slope


class TestPLRSeries:
    def test_append_and_len(self):
        series = PLRSeries()
        series.append(Vertex(0.0, 1.0, EX))
        series.append(Vertex(1.0, 2.0, EOE))
        assert len(series) == 2
        assert series.n_segments == 1

    def test_append_requires_increasing_time(self):
        series = PLRSeries()
        series.append(Vertex(1.0, 0.0, EX))
        with pytest.raises(ValueError):
            series.append(Vertex(1.0, 1.0, EOE))

    def test_append_requires_consistent_ndim(self):
        series = PLRSeries()
        series.append(Vertex(0.0, (1.0, 2.0), EX))
        with pytest.raises(ValueError):
            series.append(Vertex(1.0, 3.0, EOE))

    def test_replace_last(self):
        series = make_series(cycles=1)
        last = series[-1]
        series.replace_last(Vertex(last.time + 0.5, last.position, IRR))
        assert series[-1].state is IRR

    def test_replace_last_empty_raises(self):
        with pytest.raises(IndexError):
            PLRSeries().replace_last(Vertex(0.0, 0.0, EX))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_append_rejects_non_finite_time(self, bad):
        series = make_series(cycles=1)
        before = series.times.copy()
        with pytest.raises(ValueError, match="not finite"):
            series.append(Vertex(bad, 0.0, EX))
        assert series.times.tobytes() == before.tobytes()
        with pytest.raises(ValueError, match="not finite"):
            PLRSeries().append(Vertex(bad, 0.0, EX))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replace_last_rejects_non_finite_time(self, bad):
        series = make_series(cycles=1)
        before = series.times.copy()
        with pytest.raises(ValueError, match="not finite"):
            series.replace_last(Vertex(bad, 0.0, EX))
        assert series.times.tobytes() == before.tobytes()

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_a_copy_grows_apart_from_its_original(self, clone):
        series = make_series(cycles=1)
        copied = (
            copy.deepcopy(series)
            if clone == "deepcopy"
            else pickle.loads(pickle.dumps(series))
        )
        before = series.times.copy()
        copied.append(Vertex(series.end_time + 1.0, 5.0, EX))
        copied.replace_last(Vertex(series.end_time + 2.0, 6.0, IRR))
        assert copied.times.tobytes() == np.append(before, before[-1] + 2.0).tobytes()
        assert copied[-1] == Vertex(series.end_time + 2.0, 6.0, IRR)
        assert series.times.tobytes() == before.tobytes()

    def test_from_arrays_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            PLRSeries.from_arrays([0.0, np.nan, 0.5], [0.0, 1.0, 2.0], [0, 1, 2])

    def test_dense_views_align(self, regular_series):
        s = regular_series
        assert len(s.times) == len(s) == len(s.positions) == len(s.states)
        assert len(s.durations) == s.n_segments == len(s.amplitudes)

    def test_views_read_only(self, regular_series):
        with pytest.raises(ValueError):
            regular_series.times[0] = 99.0

    @pytest.mark.parametrize("construct", ["new", "from_dense"])
    def test_empty_series_has_empty_amplitudes(self, construct):
        """An empty series — fresh, or adopted from the ``(0,)`` position
        column compaction writes for an empty stream — has no segments
        and no amplitudes, and keeps that position shape."""
        if construct == "new":
            series = PLRSeries()
        else:
            series = PLRSeries.from_dense(
                np.empty(0), np.empty(0), np.empty(0, dtype=np.int8)
            )
        amplitudes = series.amplitudes
        assert amplitudes.shape == (0,) and amplitudes.dtype == np.float64
        assert not amplitudes.flags.writeable
        assert series.durations.shape == (0,)
        assert series.positions.shape == (0,)
        series.append(Vertex(0.0, 1.0, EX))
        series.append(Vertex(1.0, 3.0, EOE))
        assert series.amplitudes.tolist() == [2.0]

    def test_cache_invalidated_on_append(self):
        series = make_series(cycles=1)
        n = len(series.times)
        series.append(Vertex(series.end_time + 1.0, 0.0, EX))
        assert len(series.times) == n + 1

    def test_segment_accessor(self, regular_series):
        seg = regular_series.segment(0)
        assert seg.state is IN
        assert seg.amplitude == pytest.approx(10.0)
        with pytest.raises(IndexError):
            regular_series.segment(regular_series.n_segments)

    def test_negative_segment_index(self, regular_series):
        seg = regular_series.segment(-1)
        assert seg.end.time == regular_series.end_time

    def test_position_at_interior(self, regular_series):
        third = 1.0  # period 3, three equal segments
        np.testing.assert_allclose(
            regular_series.position_at(0.5 * third), [5.0]
        )

    def test_position_at_clamps(self, regular_series):
        np.testing.assert_allclose(regular_series.position_at(-5.0), [0.0])
        np.testing.assert_allclose(regular_series.position_at(1e9), [0.0])

    def test_position_at_empty_raises(self):
        with pytest.raises(ValueError):
            PLRSeries().position_at(0.0)

    def test_segment_index_at(self, regular_series):
        assert regular_series.segment_index_at(0.1) == 0
        assert regular_series.segment_index_at(1e9) == (
            regular_series.n_segments - 1
        )

    def test_from_arrays_roundtrip(self, regular_series):
        rebuilt = PLRSeries.from_arrays(
            regular_series.times,
            regular_series.positions,
            regular_series.states,
        )
        np.testing.assert_allclose(rebuilt.times, regular_series.times)
        np.testing.assert_array_equal(rebuilt.states, regular_series.states)

    def test_from_arrays_misaligned_raises(self):
        with pytest.raises(ValueError):
            PLRSeries.from_arrays([0.0, 1.0], [[0.0]], [EX, EOE])

    def test_iteration_yields_vertices(self, regular_series):
        vertices = list(regular_series)
        assert len(vertices) == len(regular_series)
        assert all(isinstance(v, Vertex) for v in vertices)


class TestSubsequence:
    def test_window_bounds_validated(self, regular_series):
        with pytest.raises(ValueError):
            regular_series.subsequence(3, 3)
        with pytest.raises(ValueError):
            regular_series.subsequence(0, len(regular_series) + 1)

    def test_counts(self, regular_series):
        sub = regular_series.subsequence(0, 4)
        assert sub.n_vertices == 4
        assert sub.n_segments == 3
        assert len(sub) == 4

    def test_state_signature(self, regular_series):
        sub = regular_series.subsequence(0, 4)
        assert sub.state_signature == (int(IN), int(EX), int(EOE))

    def test_signature_cached_and_hashable(self, regular_series):
        sub = regular_series.subsequence(0, 4)
        assert sub.state_signature is sub.state_signature
        hash(sub.state_signature)

    def test_feature_arrays(self, regular_series):
        sub = regular_series.subsequence(0, 4)
        np.testing.assert_allclose(sub.amplitudes, [10.0, 10.0, 0.0])
        np.testing.assert_allclose(sub.durations, [1.0, 1.0, 1.0])

    def test_first_last_vertex(self, regular_series):
        sub = regular_series.subsequence(1, 5)
        assert sub.first_vertex.time == regular_series[1].time
        assert sub.last_vertex.time == regular_series[4].time

    def test_vertex_indexing(self, regular_series):
        sub = regular_series.subsequence(1, 5)
        assert sub.vertex(-1).time == sub.last_vertex.time
        with pytest.raises(IndexError):
            sub.vertex(4)

    def test_cycle_count(self, regular_series):
        whole = regular_series.subsequence(0, len(regular_series))
        assert whole.cycle_count(anchor=IN) == 4

    def test_suffix(self, regular_series):
        sub = regular_series.suffix(5)
        assert sub.stop == len(regular_series)
        assert sub.n_vertices == 5

    def test_suffix_clamps_to_length(self, regular_series):
        sub = regular_series.suffix(10_000)
        assert sub.n_vertices == len(regular_series)

    def test_subsequences_enumeration(self, regular_series):
        subs = list(regular_series.subsequences(4))
        assert len(subs) == len(regular_series) - 3
        assert subs[0].start == 0
        assert subs[-1].stop == len(regular_series)


class TestCycleConversions:
    def test_roundtrip(self):
        for c in (1, 2, 5, 9):
            assert vertices_to_cycles(cycles_to_vertices(c)) == c

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cycles_to_vertices(-1)


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=2,
        max_size=40,
        unique=True,
    ),
    amp=st.floats(min_value=0.1, max_value=100.0),
)
def test_property_series_interpolation_within_hull(times, amp):
    """position_at never leaves the convex hull of vertex positions."""
    times = sorted(times)
    rng = np.random.default_rng(0)
    positions = rng.uniform(-amp, amp, len(times))
    states = [BreathingState(int(i) % 4) for i in range(len(times))]
    series = PLRSeries.from_arrays(times, positions, states)
    lo, hi = positions.min(), positions.max()
    for t in np.linspace(times[0] - 1, times[-1] + 1, 17):
        value = series.position_at(float(t))[0]
        assert lo - 1e-9 <= value <= hi + 1e-9


def _position(ndim: int):
    return st.lists(
        st.floats(-100.0, 100.0, allow_nan=False), min_size=ndim, max_size=ndim
    )


_GAP = st.floats(0.01, 5.0, allow_nan=False)
_STATE = st.integers(0, len(BreathingState) - 1)
_COLUMNS = ("times", "positions", "states", "durations", "amplitudes")


class TestOneRepresentation:
    """Random ``append``/``replace_last`` runs against adopted columns."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ndim=st.integers(1, 3), n_adopted=st.integers(0, 6))
    def test_growth_matches_adopted_columns(self, data, ndim, n_adopted):
        gaps = data.draw(st.lists(_GAP, min_size=n_adopted, max_size=n_adopted))
        times = np.cumsum(gaps).tolist()
        positions = [data.draw(_position(ndim)) for _ in range(n_adopted)]
        states = [data.draw(_STATE) for _ in range(n_adopted)]
        if n_adopted:
            sources = (
                np.array(times),
                np.array(positions).reshape(-1, ndim),
                np.array(states, dtype=np.int8),
            )
            for source in sources:
                source.flags.writeable = False
            pristine = [source.copy() for source in sources]
            series = PLRSeries.from_dense(*sources)
        else:
            sources, pristine = (), []
            series = PLRSeries()
        steps = data.draw(
            st.lists(
                st.tuples(st.booleans(), _GAP, _position(ndim), _STATE),
                min_size=1,
                max_size=25,
            )
        )
        for replace, gap, position, state in steps:
            replace = replace and bool(times)
            if replace:
                base = times[-2] if len(times) > 1 else 0.0
            else:
                base = times[-1] if times else 0.0
            vertex = Vertex(base + gap, tuple(position), state)
            if replace:
                series.replace_last(vertex)
                times[-1], positions[-1], states[-1] = base + gap, position, state
            else:
                read = [getattr(series, name) for name in _COLUMNS] if times else []
                kept = [array.copy() for array in read]
                series.append(vertex)
                times.append(base + gap)
                positions.append(position)
                states.append(state)
                for array, before in zip(read, kept):
                    assert array.tobytes() == before.tobytes()
            expected = PLRSeries.from_dense(
                np.array(times),
                np.array(positions).reshape(-1, ndim),
                np.array(states, dtype=np.int8),
            )
            for name in _COLUMNS:
                got, want = getattr(series, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable
            assert series.durations.tobytes() == np.diff(series.times).tobytes()
            norms = np.linalg.norm(np.diff(series.positions, axis=0), axis=1)
            assert series.amplitudes.tobytes() == norms.tobytes()
            assert series[-1] == vertex and len(series) == len(times)
            for source, before in zip(sources, pristine):
                assert source.tobytes() == before.tobytes()
