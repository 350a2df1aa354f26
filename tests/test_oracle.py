"""Differential-oracle tests: frozen references vs the production engine.

The hypothesis property below is the acceptance workhorse: across
hundreds of randomized databases the columnar engine (indexed *and*
linear-scan paths) must agree with the naive O(n·m) reference matcher
on identity, distances and ordering.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Match, SubsequenceMatcher
from repro.core.model import BreathingState, PLRSeries, Vertex
from repro.core.segmentation import segment_signal
from repro.core.similarity import SimilarityParams, SourceRelation
from repro.testing.oracle import (
    EquivalenceError,
    check_equivalence,
    check_plr_invariants,
    reference_distance,
    reference_matches,
    reference_segment,
)

from conftest import make_test_database
from tests_support import clean_cycles


def _series_from(times, positions, states):
    series = PLRSeries()
    for t, x, s in zip(times, positions, states):
        series.append(Vertex(float(t), (float(x),), BreathingState(s)))
    return series


# -- strategies ----------------------------------------------------------------

# Two-state alphabet: signature collisions (hence non-trivial candidate
# sets) are common, which is what stresses the engine.
_states = st.integers(0, 1)
_gap = st.floats(0.2, 3.0, allow_nan=False, allow_infinity=False)
_position = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def _stream(draw, min_vertices=4, max_vertices=14):
    n = draw(st.integers(min_vertices, max_vertices))
    gaps = draw(
        st.lists(_gap, min_size=n, max_size=n)
    )
    times = np.cumsum(gaps)
    positions = draw(st.lists(_position, min_size=n, max_size=n))
    states = draw(st.lists(_states, min_size=n, max_size=n))
    return times, positions, states


@st.composite
def _scenario(draw):
    streams = draw(st.lists(_stream(), min_size=1, max_size=3))
    m = draw(st.integers(3, 5))
    n0 = len(streams[0][0])
    if n0 < m:
        m = n0
    start = draw(st.integers(0, n0 - m))
    threshold = draw(
        st.one_of(st.just(math.inf), st.floats(0.5, 50.0, allow_nan=False))
    )
    max_matches = draw(st.one_of(st.none(), st.integers(1, 5)))
    return streams, m, start, threshold, max_matches


def _build_db(streams):
    # Runs on the storage backend selected by REPRO_TEST_BACKEND, so the
    # equivalence property doubles as a backend-correctness check.
    db = make_test_database()
    for i, (times, positions, states) in enumerate(streams):
        patient = f"P{i % 2}"  # two patients: exercises source relations
        if patient not in db.patient_ids:
            db.add_patient(patient)
        db.add_stream(
            patient, f"S{i}", series=_series_from(times, positions, states)
        )
    return db


class TestMatcherEquivalence:
    @settings(max_examples=220, deadline=None)
    @given(scenario=_scenario())
    def test_engine_agrees_with_reference(self, scenario):
        streams, m, start, threshold, max_matches = scenario
        db = _build_db(streams)
        query_stream = db.stream_ids[0]
        query = db.stream(query_stream).series.subsequence(start, start + m)
        params = SimilarityParams()
        oracle = reference_matches(
            db,
            query,
            query_stream,
            threshold=threshold,
            max_matches=max_matches,
            params=params,
        )
        for use_index in (True, False):
            engine = SubsequenceMatcher(
                db, params, use_index=use_index
            ).find_matches(
                query,
                query_stream,
                threshold=threshold,
                max_matches=max_matches,
            )
            check_equivalence(engine, oracle, max_matches=max_matches)

    @settings(max_examples=40, deadline=None)
    @given(scenario=_scenario())
    def test_anonymous_query_and_restriction(self, scenario):
        """No query stream (external query) and patient restriction."""
        streams, m, start, threshold, max_matches = scenario
        db = _build_db(streams)
        query = db.stream(db.stream_ids[0]).series.subsequence(
            start, start + m
        )
        oracle = reference_matches(
            db, query, None, threshold=threshold, restrict_patients=["P0"]
        )
        engine = SubsequenceMatcher(db).find_matches(
            query, None, threshold=threshold, restrict_patients=["P0"]
        )
        check_equivalence(engine, oracle)
        assert all(
            db.stream(match.stream_id).patient_id == "P0" for match in engine
        )


class TestReferenceDistance:
    def test_signature_mismatch_is_infinite(self):
        # Signatures cover segment states (the final vertex only closes
        # the last segment), so the mismatch must be on an inner vertex.
        a = _series_from([1, 2, 3], [0, 5, 0], [0, 1, 0]).subsequence(0, 3)
        b = _series_from([1, 2, 3], [0, 5, 0], [0, 0, 0]).subsequence(0, 3)
        assert reference_distance(a, b) == math.inf

    def test_identical_windows_are_at_distance_zero(self):
        a = _series_from([1, 2, 3], [0, 5, 0], [0, 1, 0]).subsequence(0, 3)
        assert reference_distance(a, a) == pytest.approx(0.0)

    def test_source_relation_scales_distance(self):
        params = SimilarityParams()
        a = _series_from([1, 2, 3], [0, 5, 0], [0, 1, 0]).subsequence(0, 3)
        b = _series_from([1, 2.5, 3], [0, 7, 0], [0, 1, 0]).subsequence(0, 3)
        same = reference_distance(a, b, params, SourceRelation.SAME_SESSION)
        other = reference_distance(a, b, params, SourceRelation.OTHER_PATIENT)
        assert same != other  # the w_s weight must be applied


class TestCheckEquivalence:
    def _match(self, stream="S0", start=0, distance=1.0):
        return Match(
            stream_id=stream,
            start=start,
            n_vertices=3,
            distance=distance,
            relation=SourceRelation.OTHER_PATIENT,
        )

    def test_accepts_identical(self):
        matches = [self._match(), self._match(start=4, distance=2.0)]
        check_equivalence(matches, matches)

    def test_rejects_missing_match(self):
        oracle = [self._match(), self._match(start=4, distance=2.0)]
        with pytest.raises(EquivalenceError):
            check_equivalence(oracle[:1], oracle)

    def test_rejects_duplicate_engine_keys(self):
        oracle = [self._match()]
        with pytest.raises(EquivalenceError):
            check_equivalence([self._match(), self._match()], oracle)

    def test_rejects_distance_drift(self):
        oracle = [self._match(distance=1.0)]
        engine = [self._match(distance=1.1)]
        with pytest.raises(EquivalenceError):
            check_equivalence(engine, oracle)

    def test_rejects_misordered_engine(self):
        oracle = [self._match(), self._match(start=4, distance=2.0)]
        engine = [oracle[1], oracle[0]]
        with pytest.raises(EquivalenceError):
            check_equivalence(engine, oracle)

    def test_tolerates_float_ulps(self):
        oracle = [self._match(distance=1.0)]
        engine = [self._match(distance=1.0 + 1e-12)]
        check_equivalence(engine, oracle)


class TestReferenceSegmenter:
    def test_agrees_with_production_on_clean_signal(self):
        t, x = clean_cycles(n_cycles=6)
        production = segment_signal(t, x)
        reference = reference_segment(t, x)
        assert len(reference) == len(production)
        np.testing.assert_array_equal(
            reference.states, production.states
        )
        np.testing.assert_allclose(reference.times, production.times)
        np.testing.assert_allclose(
            reference.positions, production.positions
        )

    def test_agrees_with_production_on_noisy_signal(self):
        t, x = clean_cycles(n_cycles=6)
        rng = np.random.default_rng(5)
        x = x + rng.normal(0.0, 0.4, len(x))
        production = segment_signal(t, x)
        reference = reference_segment(t, x)
        assert len(reference) == len(production)
        np.testing.assert_array_equal(reference.states, production.states)
        np.testing.assert_allclose(reference.times, production.times)


class TestPLRInvariants:
    def test_accepts_regular_series(self):
        t, x = clean_cycles(n_cycles=4)
        check_plr_invariants(segment_signal(t, x))

    def test_rejects_non_monotone_times(self):
        # append() refuses out-of-order vertices, so adopt corrupt
        # columns unchecked — what a damaged snapshot would look like.
        series = PLRSeries.from_dense(
            np.array([1.0, 5.0, 3.0]), np.array([0.0, 1.0, 0.0]), [0, 1, 2]
        )
        with pytest.raises(EquivalenceError):
            check_plr_invariants(series)

    def test_rejects_non_finite_positions(self):
        series = _series_from([1.0, 2.0], [0.0, math.nan], [0, 1])
        with pytest.raises(EquivalenceError):
            check_plr_invariants(series)

    def test_rejects_illegal_transition(self):
        # EX -> IN skips EOE: not a legal respiratory move.
        series = _series_from([1.0, 2.0, 3.0], [0, 1, 0], [0, 2, 0])
        with pytest.raises(EquivalenceError):
            check_plr_invariants(series)

    def test_allows_terminal_duplicate_state(self):
        # finish() closes the open segment by repeating its state.
        series = _series_from(
            [1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1], [0, 1, 2, 2]
        )
        check_plr_invariants(series)
