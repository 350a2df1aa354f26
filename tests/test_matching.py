"""Tests for the subsequence matcher."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    Match,
    MatchSet,
    SubsequenceMatcher,
    match_sort_key,
)
from repro.core.model import PLRSeries, Vertex
from repro.core.similarity import MatchMode, SimilarityParams, SourceRelation
from repro.database.store import MotionDatabase

from conftest import EOE, EX, IN


def series_with_amp(amplitude, cycles=4, period=3.0):
    series = PLRSeries()
    t = 0.0
    third = period / 3.0
    for _ in range(cycles):
        series.append(Vertex(t, (0.0,), IN))
        series.append(Vertex(t + third, (amplitude,), EX))
        series.append(Vertex(t + 2 * third, (0.0,), EOE))
        t += period
    series.append(Vertex(t, (0.0,), IN))
    return series


@pytest.fixture
def db():
    database = MotionDatabase()
    database.add_patient("PA")
    database.add_patient("PB")
    database.add_stream("PA", "S00", series=series_with_amp(10.0, cycles=8))
    database.add_stream("PA", "S01", series=series_with_amp(11.0))
    database.add_stream("PB", "S00", series=series_with_amp(14.0))
    return database


@pytest.fixture
def matcher(db):
    return SubsequenceMatcher(db)


class TestFindMatches:
    def test_finds_exact_match_first(self, db, matcher):
        query = db.stream("PA/S01").series.subsequence(0, 7)
        matches = matcher.find_matches(query, "PA/S01", threshold=math.inf)
        assert matches
        best = matches[0]
        # The closest candidates are the (identical) windows of PA/S01
        # itself that do not overlap the query — or PA/S00's near-identical
        # windows scaled by the cross-session weight.
        assert best.distance <= matches[-1].distance

    def test_sorted_by_distance(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)

    def test_overlap_excluded(self, db, matcher):
        series = db.stream("PA/S00").series
        query = series.suffix(7)
        matches = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        for m in matches:
            if m.stream_id == "PA/S00":
                assert m.start + m.n_vertices <= query.start

    def test_threshold_filters(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        all_matches = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        some = matcher.find_matches(query, "PA/S00", threshold=1.0)
        assert len(some) <= len(all_matches)
        assert all(m.distance <= 1.0 for m in some)

    def test_max_matches(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        top2 = matcher.find_matches(
            query, "PA/S00", threshold=math.inf, max_matches=2
        )
        assert len(top2) == 2

    def test_restrict_patients(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(
            query, "PA/S00", threshold=math.inf, restrict_patients=("PB",)
        )
        assert matches
        assert all(m.stream_id.startswith("PB/") for m in matches)

    def test_relations_assigned(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        by_stream = {m.stream_id: m.relation for m in matches}
        assert by_stream["PA/S00"] is SourceRelation.SAME_SESSION
        assert by_stream["PA/S01"] is SourceRelation.SAME_PATIENT
        assert by_stream["PB/S00"] is SourceRelation.OTHER_PATIENT

    def test_no_stream_id_treats_all_as_other(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(query, None, threshold=math.inf)
        assert all(
            m.relation is SourceRelation.OTHER_PATIENT for m in matches
        )

    def test_no_candidates(self, db, matcher):
        # A signature that never occurs (three rests in a row).
        series = PLRSeries()
        for i, state in enumerate((EOE, EOE, EOE, EOE)):
            series.append(Vertex(float(i), (0.0,), state))
        query = series.subsequence(0, 4)
        assert matcher.find_matches(query, None, threshold=math.inf) == []

    def test_match_materialisation(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        match = matcher.find_matches(query, "PA/S00", threshold=math.inf)[0]
        sub = match.subsequence(db)
        assert sub.n_vertices == query.n_vertices
        assert sub.state_signature == query.state_signature


class TestDeterministicOrdering:
    def test_ties_break_by_stream_then_start(self):
        """Equal distances order by (stream_id, start), not insertion
        order — retrieval is reproducible across runs and platforms."""
        database = MotionDatabase()
        database.add_patient("PZ")
        database.add_patient("PA")
        # Identical series inserted in anti-lexicographic order.
        database.add_stream("PZ", "S00", series=series_with_amp(10.0))
        database.add_stream("PA", "S00", series=series_with_amp(10.0))
        matcher = SubsequenceMatcher(database)
        query = database.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(query, None, threshold=math.inf)
        keys = [(m.distance, m.stream_id, m.start) for m in matches]
        assert keys == sorted(keys)
        # All windows tie pairwise across the two identical streams, so
        # PA must come before PZ at every tied distance.
        zero = [m for m in matches if m.distance == 0.0]
        assert zero and zero[0].stream_id == "PA/S00"

    def test_index_and_scan_order_identically(self, db):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        indexed = SubsequenceMatcher(db, use_index=True)
        scanning = SubsequenceMatcher(db, use_index=False)
        a = indexed.find_matches(query, "PA/S00", threshold=math.inf)
        b = scanning.find_matches(query, "PA/S00", threshold=math.inf)
        assert [(m.stream_id, m.start) for m in a] == [
            (m.stream_id, m.start) for m in b
        ]


class TestTopK:
    def test_equals_full_sort_truncation(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        full = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        for k in (1, 2, 3, len(full), len(full) + 5):
            topk = matcher.find_matches(
                query, "PA/S00", threshold=math.inf, max_matches=k
            )
            assert [(m.stream_id, m.start, m.distance) for m in topk] == [
                (m.stream_id, m.start, m.distance) for m in full[:k]
            ]

    def test_boundary_ties_respect_tiebreak(self):
        """When the k-th and (k+1)-th candidates tie on distance, the
        (stream_id, start) tie-break decides which survives."""
        database = MotionDatabase()
        database.add_patient("PZ")
        database.add_patient("PA")
        database.add_stream("PZ", "S00", series=series_with_amp(10.0))
        database.add_stream("PA", "S00", series=series_with_amp(10.0))
        matcher = SubsequenceMatcher(database)
        query = database.stream("PA/S00").series.subsequence(0, 7)
        full = matcher.find_matches(query, None, threshold=math.inf)
        for k in range(1, len(full) + 1):
            topk = matcher.find_matches(
                query, None, threshold=math.inf, max_matches=k
            )
            assert [(m.stream_id, m.start) for m in topk] == [
                (m.stream_id, m.start) for m in full[:k]
            ]


class TestParallelScan:
    def test_pool_matches_serial(self, db):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        serial = SubsequenceMatcher(db, use_index=False)
        pooled = SubsequenceMatcher(db, use_index=False, scan_workers=3)
        a = serial.find_matches(query, "PA/S00", threshold=math.inf)
        b = pooled.find_matches(query, "PA/S00", threshold=math.inf)
        assert [(m.stream_id, m.start, m.distance) for m in a] == [
            (m.stream_id, m.start, m.distance) for m in b
        ]

    def test_invalid_workers_rejected(self, db):
        with pytest.raises(ValueError):
            SubsequenceMatcher(db, use_index=False, scan_workers=0)


class TestScanEquivalence:
    def test_index_equals_scan(self, db):
        indexed = SubsequenceMatcher(db, use_index=True)
        scanning = SubsequenceMatcher(db, use_index=False)
        query = db.stream("PA/S01").series.subsequence(2, 9)
        a = indexed.find_matches(query, "PA/S01", threshold=math.inf)
        b = scanning.find_matches(query, "PA/S01", threshold=math.inf)
        assert [(m.stream_id, m.start, round(m.distance, 9)) for m in a] == [
            (m.stream_id, m.start, round(m.distance, 9)) for m in b
        ]

    def test_per_call_params_override(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        default = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        unweighted = matcher.find_matches(
            query,
            "PA/S00",
            threshold=math.inf,
            params=SimilarityParams().unweighted(),
        )
        d_default = {(m.stream_id, m.start): m.distance for m in default}
        d_unweighted = {
            (m.stream_id, m.start): m.distance for m in unweighted
        }
        # Cross-patient candidates lose their penalty without weighting.
        key = next(k for k in d_default if k[0] == "PB/S00")
        assert d_unweighted[key] < d_default[key]


# -- the columnar result -------------------------------------------------------

MODES = {
    "rigid": SimilarityParams(),
    "normalized": SimilarityParams(mode=MatchMode.NORMALIZED),
    "warped": SimilarityParams(mode=MatchMode.WARPED, warp_band=1),
}


@pytest.fixture(params=[True, False], ids=["index", "scan"])
def use_index(request):
    return request.param


class TestMatchSet:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_sequence_contract_agrees_with_materialised_list(
        self, db, mode, use_index
    ):
        matcher = SubsequenceMatcher(db, MODES[mode], use_index=use_index)
        query = db.stream("PA/S00").series.subsequence(0, 7)
        matches = matcher.find_matches(query, "PA/S00", threshold=math.inf)
        assert isinstance(matches, MatchSet)
        listed = list(matches)
        assert len(listed) >= 3
        assert len(matches) == len(listed)
        assert matches == listed and listed == matches
        assert not (matches != listed) and not (listed != matches)
        assert matches != listed[:-1] and listed[:-1] != matches
        for i in range(len(listed)):
            assert matches[i] is listed[i]
            assert matches[-1 - i] is listed[-1 - i]
        with pytest.raises(IndexError):
            matches[len(listed)]
        for cut in (slice(None, 2), slice(1, -1), slice(None, None, -2)):
            assert matches[cut] == listed[cut]
            assert isinstance(matches[cut], list)
        assert [m for m in matches] == listed
        assert listed[0] in matches

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_fields_have_the_historical_types(self, db, mode, use_index):
        matcher = SubsequenceMatcher(db, MODES[mode], use_index=use_index)
        query = db.stream("PA/S01").series.subsequence(0, 7)
        matches = matcher.find_matches(query, "PA/S01", threshold=math.inf)
        assert matches
        for i, match in enumerate(matches):
            assert type(match) is Match
            assert type(match.stream_id) is str
            assert type(match.start) is int
            assert type(match.n_vertices) is int
            assert type(match.distance) is float
            assert type(match.relation) is SourceRelation
            assert match.stream_id == matches.names[matches.codes[i]]
            assert match.start == matches.starts[i]
            assert match.n_vertices == matches.lengths[i]
            assert match.distance == matches.distances[i]
            assert match.relation is matches.relations[matches.codes[i]]

    def test_empty_result_equals_empty_list(self, matcher):
        series = PLRSeries()
        for i, state in enumerate((EOE, EOE, EOE, EOE)):
            series.append(Vertex(float(i), (0.0,), state))
        empty = matcher.find_matches(
            series.subsequence(0, 4), None, threshold=math.inf
        )
        assert isinstance(empty, MatchSet)
        assert empty == [] and [] == empty
        assert len(empty) == 0 and not empty
        assert list(empty) == [] and empty[:] == []
        assert MatchSet.empty() == []

    def test_from_matches_keeps_its_items(self, db, matcher):
        query = db.stream("PA/S00").series.subsequence(0, 7)
        listed = list(
            matcher.find_matches(query, "PA/S00", threshold=math.inf)
        )
        rebuilt = MatchSet.from_matches(listed)
        assert rebuilt == listed
        assert all(a is b for a, b in zip(rebuilt, listed))
        assert MatchSet.from_matches(rebuilt) is rebuilt
        for i, match in enumerate(listed):
            code = rebuilt.codes[i]
            assert rebuilt.names[code] == match.stream_id
            assert rebuilt.relations[code] is match.relation
            assert rebuilt.distances[i] == match.distance


def _series_from_rows(rows, t0=0.0):
    """A PLR whose segment ``i`` has state ``rows[i][0]``, amplitude
    ``rows[i][1]`` and duration 1."""
    series = PLRSeries()
    t, position = t0, 0.0
    for state, step in rows:
        series.append(Vertex(t, (position,), state))
        t += 1.0
        position += -step if state is EX else step
    series.append(Vertex(t, (position,), IN))
    return series


_rows = st.lists(
    st.tuples(st.sampled_from([IN, EX, EOE]), st.sampled_from([1.0, 2.0])),
    min_size=6,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(
    base=_rows,
    others=st.lists(_rows, min_size=1, max_size=2),
    data=st.data(),
)
def test_warped_columnar_order_is_the_canonical_sort(base, others, data):
    """The warped leg ranks its columns once; the order must equal
    ``sorted(key=match_sort_key)`` over the same matches.

    Ties are forced: an exact copy of the query's stream ties it at
    every window across streams, and a copy with one segment of the
    query window doubled ties it at the next window length (the banded
    alignment pays nothing for the repeat).  Amplitudes drawn from two
    values add many more ties.
    """
    n_vertices = data.draw(st.integers(min_value=3, max_value=5))
    a = data.draw(st.integers(min_value=0, max_value=len(base) + 1 - n_vertices))
    j = data.draw(st.integers(min_value=a, max_value=a + n_vertices - 2))
    stretched = base[: j + 1] + base[j:]
    database = MotionDatabase()
    streams = {"PQ/S0": base, "PC/S0": base, "PS/S0": stretched}
    streams.update({f"PR/S{k}": rows for k, rows in enumerate(others)})
    for sid, rows in streams.items():
        patient, session = sid.split("/")
        if patient not in database.patient_ids:
            database.add_patient(patient)
        database.add_stream(patient, session, series=_series_from_rows(rows))
    query = database.stream("PQ/S0").series.subsequence(a, a + n_vertices)
    for use_index in (True, False):
        matches = SubsequenceMatcher(
            database, MODES["warped"], use_index=use_index
        ).find_matches(query, None, threshold=1e12)
        listed = list(matches)
        assert listed == sorted(listed, key=match_sort_key)
        tied = [m for m in listed if m.distance == 0.0]
        assert {m.stream_id for m in tied} >= {"PQ/S0", "PC/S0", "PS/S0"}
        assert {m.n_vertices for m in tied} >= {n_vertices, n_vertices + 1}

