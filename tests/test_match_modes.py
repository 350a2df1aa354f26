"""Match-mode equivalence suite: engine vs frozen oracles, metamorphic laws.

Every pluggable mode's engine retrieval — the indexed (coarse-to-fine
for warping) path and the linear-scan ablation path — must agree with
its frozen naive reference in :mod:`repro.testing.oracle` on random
FSA-plausible databases.  On top of the per-mode sweeps, the modes obey
metamorphic laws that pin their *semantics* rather than their
implementation:

* normalized retrieval is invariant under per-stream affine rescaling
  ``a*x + b`` with ``a > 0`` of the raw positions;
* warped retrieval with ``warp_band=0`` equals rigid retrieval exactly
  (only the diagonal alignment is admissible);
* rigid mode is byte-identical to the historical default path.

Databases go through ``make_test_database`` so the whole file runs
against both ``REPRO_TEST_BACKEND`` backends.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import PartialTopK, QueryView, SubsequenceMatcher
from repro.core.model import BreathingState, PLRSeries, Vertex
from repro.core.query import warped_length_range
from repro.core.similarity import MatchMode, SimilarityParams, SourceRelation
from repro.database.backend import create_backend
from repro.database.store import MotionDatabase
from repro.service.builder import PipelineBuilder
from repro.testing.faults import FaultInjector, FaultPlan, FaultSpec
from repro.testing.oracle import check_equivalence, reference_matches_for_mode

from conftest import EOE, EX, IN, make_series, make_test_database

#: Permissive enough that random databases produce matches, finite so a
#: spurious ``inf`` distance can never slip through as a match.
THRESHOLD = 50.0

#: Effectively unbounded — but finite: ``inf <= inf`` is True, so an
#: infinite threshold would mask exactly the bug class it should catch.
BIG = 1e12

MODE_PARAMS = {
    "rigid": SimilarityParams(mode=MatchMode.RIGID),
    "normalized": SimilarityParams(mode=MatchMode.NORMALIZED),
    "warped": SimilarityParams(mode=MatchMode.WARPED, warp_band=1),
}

SWEEP_MODES = sorted(MODE_PARAMS)


def random_plr(rng, n_vertices, irregular_rate=0.1):
    """A random FSA-plausible PLR series."""
    series = PLRSeries()
    t = 0.0
    order = [IN, EX, EOE]
    position = 0.0
    cursor = int(rng.integers(0, 3))
    for _ in range(n_vertices):
        if rng.random() < irregular_rate:
            state = BreathingState.IRR
        else:
            state = order[cursor % 3]
            cursor += 1
        series.append(Vertex(t, (position,), state))
        t += float(rng.uniform(0.4, 2.0))
        if state is IN:
            position += float(rng.uniform(3.0, 15.0))
        elif state is EX:
            position -= float(rng.uniform(3.0, 15.0))
        else:
            position += float(rng.uniform(-0.5, 0.5))
    return series


def random_database(rng, n_patients=2, sessions=2):
    """Random small cohort over the backend under test."""
    db = make_test_database()
    for p in range(n_patients):
        pid = f"P{p}"
        db.add_patient(pid)
        for s in range(sessions):
            db.add_stream(
                pid, f"S{s}", series=random_plr(rng, int(rng.integers(14, 32)))
            )
    return db


def random_query(db, rng, length):
    """A query window cut from the first stream (``None`` if too short)."""
    series = db.stream("P0/S0").series
    if len(series) <= length:
        return None
    start = int(rng.integers(0, len(series) - length))
    return series.subsequence(start, start + length)


def match_key(match):
    """Identity triple — warped matches can differ in length."""
    return (match.stream_id, match.start, match.n_vertices)


# -- engine vs frozen oracle ---------------------------------------------------


@pytest.mark.parametrize("mode", SWEEP_MODES)
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    query_len=st.integers(min_value=3, max_value=8),
)
def test_engine_agrees_with_frozen_oracle(mode, seed, query_len):
    """Indexed and linear-scan retrieval == the mode's naive reference."""
    params = MODE_PARAMS[mode]
    rng = np.random.default_rng(seed)
    db = random_database(rng)
    query = random_query(db, rng, query_len)
    if query is None:
        return
    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=THRESHOLD, params=params
    )
    for use_index in (True, False):
        engine = SubsequenceMatcher(db, params, use_index=use_index)
        check_equivalence(
            engine.find_matches(query, "P0/S0", threshold=THRESHOLD), oracle
        )
    # Top-k truncation must commute with the mode's ranking.
    oracle_k = reference_matches_for_mode(
        db, query, "P0/S0", threshold=THRESHOLD, max_matches=3, params=params
    )
    engine_k = SubsequenceMatcher(db, params).find_matches(
        query, "P0/S0", threshold=THRESHOLD, max_matches=3
    )
    check_equivalence(engine_k, oracle_k, max_matches=3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    band=st.integers(min_value=0, max_value=3),
)
def test_warped_engine_agrees_with_oracle_across_bands(seed, band):
    """The band is part of the contract, not a tuning knob."""
    params = SimilarityParams(mode=MatchMode.WARPED, warp_band=band)
    rng = np.random.default_rng(seed)
    db = random_database(rng)
    query = random_query(db, rng, int(rng.integers(3, 8)))
    if query is None:
        return
    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=THRESHOLD, params=params
    )
    for use_index in (True, False):
        engine = SubsequenceMatcher(db, params, use_index=use_index)
        check_equivalence(
            engine.find_matches(query, "P0/S0", threshold=THRESHOLD), oracle
        )


@pytest.mark.parametrize("use_index", [True, False], ids=["index", "scan"])
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_max_matches_zero_is_empty_and_negative_is_rejected(mode, use_index):
    """``max_matches=0`` keeps no match, as the oracle's ``scored[:0]``
    does; a negative cap has no top-k meaning and raises, naming it."""
    params = MODE_PARAMS[mode]
    db = random_database(np.random.default_rng(0))
    query = db.stream("P0/S0").series.subsequence(0, 4)
    engine = SubsequenceMatcher(db, params, use_index=use_index)
    assert engine.find_matches(query, "P0/S0", threshold=THRESHOLD)
    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=THRESHOLD, max_matches=0, params=params
    )
    assert oracle == []
    assert (
        engine.find_matches(query, "P0/S0", threshold=THRESHOLD, max_matches=0)
        == oracle
    )
    with pytest.raises(ValueError, match="max_matches"):
        engine.find_matches(
            query, "P0/S0", threshold=THRESHOLD, max_matches=-1
        )


# -- past the int64 key width --------------------------------------------------


def cyclic_plr(rng, n_vertices, repeat_rate):
    """A random PLR cycling IN, EX, EOE, each state repeating with
    probability ``repeat_rate``.  At rate 0 every window starting on one
    phase shares its signature, however long the window."""
    series = PLRSeries()
    t = 0.0
    position = 0.0
    order = [IN, EX, EOE]
    cursor = int(rng.integers(0, 3))
    for _ in range(n_vertices):
        state = order[cursor % 3]
        series.append(Vertex(t, (position,), state))
        t += float(rng.uniform(0.4, 2.0))
        if state is IN:
            position += float(rng.uniform(3.0, 15.0))
        elif state is EX:
            position -= float(rng.uniform(3.0, 15.0))
        else:
            position += float(rng.uniform(-0.5, 0.5))
        if rng.random() >= repeat_rate:
            cursor += 1
    return series


#: Query vertices per mode.  Keys fit an int64 up to 31 segments (32
#: vertices): rigid and normalized queries have 35 segments, and the
#: warped query's band-1 lengths (31 to 33 vertices) cross the edge.
LONG_QUERY = {"rigid": 36, "normalized": 36, "warped": 32}


@pytest.mark.parametrize("seed", [0, 3, 4])
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_engine_agrees_with_oracle_past_the_int64_key_width(mode, seed):
    """Indexed and linear-scan retrieval == the mode's naive reference
    for windows whose keys are Python ints."""
    params = MODE_PARAMS[mode]
    rng = np.random.default_rng(seed)
    db = make_test_database()
    repeat_rate = 0.05 if mode == "warped" else 0.0
    for p in range(2):
        db.add_patient(f"P{p}")
        for s in range(2):
            db.add_stream(
                f"P{p}", f"S{s}", series=cyclic_plr(rng, 80, repeat_rate)
            )
    series = db.stream("P0/S0").series
    length = LONG_QUERY[mode]
    start = int(rng.integers(0, len(series) - length))
    query = series.subsequence(start, start + length)
    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=BIG, params=params
    )
    lengths = {m.n_vertices for m in oracle}
    if mode == "warped":
        assert 33 in lengths and min(lengths) <= 32
    else:
        assert lengths == {length}
    oracle_k = reference_matches_for_mode(
        db, query, "P0/S0", threshold=BIG, max_matches=5, params=params
    )
    for use_index in (True, False):
        engine = SubsequenceMatcher(db, params, use_index=use_index)
        check_equivalence(
            engine.find_matches(query, "P0/S0", threshold=BIG), oracle
        )
        check_equivalence(
            engine.find_matches(query, "P0/S0", threshold=BIG, max_matches=5),
            oracle_k,
            max_matches=5,
        )


# -- metamorphic laws ----------------------------------------------------------


def affine_series(series, a, b):
    """Rebuild a PLR with every raw position mapped through ``a*x + b``."""
    out = PLRSeries()
    for i in range(len(series)):
        vertex = series.vertex(i)
        out.append(
            Vertex(
                vertex.time,
                tuple(a * p + b for p in vertex.position),
                vertex.state,
            )
        )
    return out


@settings(max_examples=75, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_normalized_invariant_under_per_stream_affine_rescaling(seed):
    """``a*x + b`` (``a > 0``), per stream, never changes normalized results.

    Timing is untouched and per-window z-normalization absorbs any
    positive gain and offset of the amplitudes, so the match identities
    *and* distances must survive independent rescaling of every stream.
    Ordering may swap between float near-ties, so the comparison is the
    key -> distance mapping, not the ranked list.
    """
    rng = np.random.default_rng(seed)
    db = random_database(rng)
    scaled = make_test_database()
    for p in range(2):
        pid = f"P{p}"
        scaled.add_patient(pid)
        for s in range(2):
            a = float(rng.uniform(0.25, 4.0))
            b = float(rng.uniform(-50.0, 50.0))
            scaled.add_stream(
                pid,
                f"S{s}",
                series=affine_series(db.stream(f"{pid}/S{s}").series, a, b),
            )
    length = int(rng.integers(3, 8))
    series = db.stream("P0/S0").series
    if len(series) <= length:
        return
    start = int(rng.integers(0, len(series) - length))
    query = series.subsequence(start, start + length)
    query_scaled = scaled.stream("P0/S0").series.subsequence(
        start, start + length
    )
    params = MODE_PARAMS["normalized"]
    base = SubsequenceMatcher(db, params).find_matches(
        query, "P0/S0", threshold=BIG
    )
    rescaled = SubsequenceMatcher(scaled, params).find_matches(
        query_scaled, "P0/S0", threshold=BIG
    )
    assert {match_key(m) for m in base} == {match_key(m) for m in rescaled}
    by_key = {match_key(m): m.distance for m in rescaled}
    for m in base:
        np.testing.assert_allclose(
            by_key[match_key(m)], m.distance, rtol=1e-9, atol=1e-9
        )


@settings(max_examples=75, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    query_len=st.integers(min_value=3, max_value=8),
)
def test_warp_band_zero_equals_rigid_exactly(seed, query_len):
    """Band 0 admits only the diagonal alignment: rigid, bit for bit."""
    rng = np.random.default_rng(seed)
    db = random_database(rng)
    query = random_query(db, rng, query_len)
    if query is None:
        return
    rigid = SubsequenceMatcher(db, SimilarityParams()).find_matches(
        query, "P0/S0", threshold=BIG
    )
    zero_band = SimilarityParams(mode=MatchMode.WARPED, warp_band=0)
    for use_index in (True, False):
        warped = SubsequenceMatcher(
            db, zero_band, use_index=use_index
        ).find_matches(query, "P0/S0", threshold=BIG)
        assert warped == rigid


def test_rigid_mode_is_byte_identical_to_default():
    """``mode="rigid"`` takes the historical path: identical Match lists."""
    rng = np.random.default_rng(7)
    db = random_database(rng, n_patients=3)
    query = random_query(db, rng, 6)
    assert query is not None
    default = SubsequenceMatcher(db).find_matches(
        query, "P0/S0", threshold=BIG
    )
    explicit = SubsequenceMatcher(
        db, SimilarityParams(mode="rigid")
    ).find_matches(query, "P0/S0", threshold=BIG)
    assert default  # the property is vacuous on an empty result
    assert explicit == default


def test_unknown_mode_and_bad_band_are_rejected():
    with pytest.raises(ValueError):
        SimilarityParams(mode="fuzzy")
    with pytest.raises(ValueError):
        SimilarityParams(warp_band=-1)
    with pytest.raises(ValueError):
        SimilarityParams(warp_band=1.5)


# -- serving-tier plumbing -----------------------------------------------------


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_builder_payload_roundtrip_preserves_mode(mode):
    """Shard workers receive the builder pickled (the ``spawn`` start
    method), which carries the mode without translation."""
    builder = PipelineBuilder(similarity=MODE_PARAMS[mode])
    rebuilt = pickle.loads(pickle.dumps(builder))
    assert rebuilt == builder
    assert rebuilt.similarity.mode is MODE_PARAMS[mode].mode
    assert rebuilt.similarity.warp_band == MODE_PARAMS[mode].warp_band


@pytest.mark.parametrize("mode", SWEEP_MODES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_partial_topk_merge_equals_single_process(mode, seed):
    """Scatter/gather == one process, byte for byte, under every mode.

    Patients split across two shard databases; per-shard ``find_partial``
    over the same :class:`QueryView`, merged, must equal one matcher over
    the union database.  Distance kernels reduce row-locally, so shard
    membership cannot perturb a single bit.
    """
    params = MODE_PARAMS[mode]
    rng = np.random.default_rng(seed)
    full = make_test_database()
    shards = [make_test_database(), make_test_database()]
    for p in range(4):
        pid = f"P{p}"
        series = random_plr(rng, int(rng.integers(14, 30)))
        for target in (full, shards[p % 2]):
            target.add_patient(pid)
            target.add_stream(pid, "S0", series=series)
    remote = random_plr(rng, 8)
    view = QueryView.from_query(remote.subsequence(0, len(remote)))
    solo = SubsequenceMatcher(full, params).find_matches(
        view, query_stream_id=None, threshold=THRESHOLD, max_matches=5
    )
    parts = [
        SubsequenceMatcher(shard, params).find_partial(
            view, threshold=THRESHOLD, max_matches=5
        )
        for shard in shards
    ]
    assert PartialTopK.merge(parts, max_matches=5) == solo


# -- cached admission columns ----------------------------------------------------


def admission_database(backend, tmp_path):
    """Three patients' regular streams: every window of the right shape
    matches, so each stream is represented in every mode's result."""
    db = MotionDatabase(backend=create_backend(backend, str(tmp_path)))
    for p, amplitude in enumerate((10.0, 9.0, 11.0)):
        pid = f"P{p}"
        db.add_patient(pid)
        for s in range(2):
            db.add_stream(
                pid,
                f"S{s}",
                series=make_series(cycles=6 + s, amplitude=amplitude + s),
            )
    return db


def streams_of(matches):
    return {match.stream_id for match in matches}


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("backend", ["in_memory", "logged"])
def test_recreated_stream_gets_its_new_relation(
    backend, mode, use_index, tmp_path
):
    """A stream removed and re-created under its id for another patient
    is ranked with the new patient's relation and ``w_s`` at the next
    find, although the previous find cached every code's owners."""
    params = MODE_PARAMS[mode]
    db = admission_database(backend, tmp_path)
    matcher = SubsequenceMatcher(db, params, use_index=use_index)
    query = db.stream("P0/S0").series.suffix(7)
    before = matcher.find_matches(query, "P0/S0", threshold=BIG)
    moved = [m for m in before if m.stream_id == "P1/S1"]
    assert moved
    assert {m.relation for m in moved} == {SourceRelation.OTHER_PATIENT}

    series = db.stream("P1/S1").series
    db.remove_stream("P1/S1")
    db.add_stream("P0", "S9", series=series, stream_id="P1/S1")
    after = matcher.find_matches(query, "P0/S0", threshold=BIG)
    moved = [m for m in after if m.stream_id == "P1/S1"]
    assert moved
    assert {m.relation for m in moved} == {SourceRelation.SAME_PATIENT}
    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=BIG, params=params
    )
    check_equivalence(after, oracle)
    assert after == SubsequenceMatcher(db, params).find_matches(
        query, "P0/S0", threshold=BIG
    )
    db.close()


@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("backend", ["in_memory", "logged"])
def test_stream_removed_during_a_lookup_is_dropped(backend, mode, tmp_path):
    """A stream removed by an ``index.catch_up`` fault callback while a
    lookup walks the stream records is absent from that find's result —
    the cached owners predate the removal — and the next find equals
    the oracle over the surviving streams."""
    params = MODE_PARAMS[mode]
    db = admission_database(backend, tmp_path)
    matcher = SubsequenceMatcher(db, params)
    query = db.stream("P0/S0").series.suffix(7)
    victim = "P2/S0"
    warm = matcher.find_matches(query, "P0/S0", threshold=BIG)
    assert victim in streams_of(warm)

    # Fire on the second record the lookup at the query's length walks
    # (warped retrieval looks the shorter length up first; the victim
    # only matches at the query's): the warm-up find has cached the
    # owners of every interned stream, the victim's too.
    earlier_lookups = 0
    if params.mode is MatchMode.WARPED:
        lengths = list(warped_length_range(query.n_vertices, params.warp_band))
        earlier_lookups = lengths.index(query.n_vertices)
    at = earlier_lookups * db.n_streams + 1
    matcher.index.injector = injector = FaultInjector(
        FaultPlan([FaultSpec("index.catch_up", "remove_stream", at=at)]),
        callbacks={"remove_stream": lambda spec: db.remove_stream(victim)},
    )
    during = matcher.find_matches(query, "P0/S0", threshold=BIG)
    assert injector.exhausted
    assert victim not in db
    assert victim not in streams_of(during)

    oracle = reference_matches_for_mode(
        db, query, "P0/S0", threshold=BIG, params=params
    )
    check_equivalence(during, oracle)
    after = matcher.find_matches(query, "P0/S0", threshold=BIG)
    check_equivalence(after, oracle)
    assert after == SubsequenceMatcher(db, params).find_matches(
        query, "P0/S0", threshold=BIG
    )
    db.close()
