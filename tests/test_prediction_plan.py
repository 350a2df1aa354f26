"""The prediction kernel vs the frozen scalar reference.

``core/prediction.PlanStack`` serves every prediction — a one-row stack
for a solo session or ``OnlinePredictor.predict``, one row per tenant
for the session service — and must be **byte-identical** to the naive
scalar loop frozen in ``testing/oracle.reference_prediction``.  Every
test here asserts exact float equality (``np.array_equal``), not
closeness.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchSet, SubsequenceMatcher
from repro.core.model import BreathingState, PLRSeries, Vertex
from repro.core.online import OnlineAnalysisSession, OnlineSessionConfig
from repro.core.prediction import (
    OnlinePredictor,
    PlanStack,
    build_prediction_plan,
)
from repro.database.store import MotionDatabase
from repro.events import encode_value
from repro.obs.telemetry import Telemetry
from repro.service.manager import SessionManager
from repro.signals.respiratory import RespiratorySimulator, SessionConfig
from repro.testing.oracle import reference_prediction

from conftest import EOE, EX, IN


LATENCY = 0.2


def random_breathing_plr(rng, n_vertices, ndim=1):
    """A random periodic-ish PLR with ``ndim`` position components."""
    series = PLRSeries()
    t = float(rng.uniform(0.0, 2.0))
    order = [IN, EX, EOE]
    position = rng.uniform(-5.0, 5.0, ndim)
    cursor = int(rng.integers(0, 3))
    for _ in range(n_vertices):
        state = order[cursor % 3]
        cursor += 1
        series.append(Vertex(t, tuple(float(x) for x in position), state))
        t += float(rng.uniform(0.3, 1.8))
        step = float(rng.uniform(3.0, 12.0))
        if state is IN:
            position = position + step * rng.uniform(0.5, 1.5, ndim)
        elif state is EX:
            position = position - step * rng.uniform(0.5, 1.5, ndim)
        else:
            position = position + rng.uniform(-0.4, 0.4, ndim)
    return series


def random_setup(seed, ndim=1, n_streams=3):
    """Database, query and matches over random streams (threshold=inf)."""
    rng = np.random.default_rng(seed)
    db = MotionDatabase()
    db.add_patient("PA")
    db.add_patient("PB")
    for k in range(n_streams):
        db.add_stream(
            "PA" if k % 2 == 0 else "PB",
            f"H{k}",
            series=random_breathing_plr(rng, int(rng.integers(9, 30)), ndim),
        )
    live = random_breathing_plr(rng, int(rng.integers(7, 14)), ndim)
    db.add_stream("PA", "LIVE", series=live)
    matcher = SubsequenceMatcher(db)
    query = live.suffix(int(rng.integers(3, min(7, len(live)))) + 1)
    matches = matcher.find_matches(query, "PA/LIVE", threshold=math.inf)
    return db, matcher, query, matches


def n_usable(db, matches, horizon):
    """How many matches record a future ``horizon`` past their end."""
    count = 0
    for match in matches:
        series = db.stream(match.stream_id).series
        end_time = float(series.times[match.start + match.n_vertices - 1])
        count += end_time + horizon <= float(series.times[-1])
    return count


def serve_one(plan, horizon, min_matches=1):
    """One-row stack serve: ``(position or None, usable count)``."""
    served, counts, positions = PlanStack([plan], [min_matches]).serve(
        np.array([horizon])
    )
    return (positions[0] if served[0] else None), int(counts[0])


class TestPlanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        horizon=st.floats(min_value=0.0, max_value=40.0),
        min_matches=st.integers(min_value=1, max_value=4),
        ndim=st.integers(min_value=1, max_value=3),
        anchor=st.sampled_from(["last", "first"]),
        distance_weighted=st.booleans(),
    )
    def test_serve_byte_identical_to_reference(
        self, seed, horizon, min_matches, ndim, anchor, distance_weighted
    ):
        """A one-row serve == the frozen scalar loop, declines included.

        Horizons up to 40 s reach far past the packed tail window, so the
        per-row ``position_at`` fallback and end-of-stream clamping are
        exercised, not just the common narrow-horizon path.
        """
        db, matcher, query, matches = random_setup(seed, ndim=ndim)
        expected = reference_prediction(
            db,
            query,
            matches,
            horizon,
            params=matcher.params,
            min_matches=min_matches,
            anchor=anchor,
            distance_weighted=distance_weighted,
        )
        plan = build_prediction_plan(
            db,
            query,
            matches,
            params=matcher.params,
            anchor=anchor,
            distance_weighted=distance_weighted,
        )
        served, count = serve_one(plan, horizon, min_matches)
        assert count == n_usable(db, matches, horizon)
        if expected is None:
            assert served is None
            assert count < min_matches
        else:
            assert served is not None
            assert np.array_equal(expected, served)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        horizon=st.floats(min_value=0.0, max_value=40.0),
        min_matches=st.integers(min_value=1, max_value=4),
        ndim=st.integers(min_value=1, max_value=3),
        anchor=st.sampled_from(["last", "first"]),
        distance_weighted=st.booleans(),
    )
    def test_predict_is_the_reference_on_its_matches(
        self, seed, horizon, min_matches, ndim, anchor, distance_weighted
    ):
        """OnlinePredictor.predict == the frozen loop over the matches it
        retrieves: position, n_matches and declines."""
        db, matcher, query, matches = random_setup(seed, ndim=ndim)
        predictor = OnlinePredictor(
            db,
            matcher,
            min_matches=min_matches,
            distance_weighted=distance_weighted,
            anchor=anchor,
        )
        got = predictor.predict(
            query, "PA/LIVE", horizon, threshold=math.inf
        )
        expected = reference_prediction(
            db,
            query,
            matches,
            horizon,
            params=matcher.params,
            min_matches=min_matches,
            anchor=anchor,
            distance_weighted=distance_weighted,
        )
        if expected is None:
            assert got is None
            return
        assert got is not None
        assert np.array_equal(got.position, expected)
        assert got.n_matches == n_usable(db, matches, horizon)
        assert got.horizon == horizon
        assert got.time == query.last_vertex.time + horizon

    @pytest.mark.parametrize(
        "horizon", [-0.4, -1e-12, math.nan, math.inf, -math.inf]
    )
    def test_predict_rejects_negative_or_non_finite_horizon(self, horizon):
        """Plans pack only each match's future, so a horizon < 0 (or not
        a number at all) is refused where it enters."""
        db, matcher, query, matches = random_setup(3)
        assert matches, "vacuous fixture"
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        with pytest.raises(ValueError, match="horizon"):
            predictor.predict(query, "PA/LIVE", horizon, threshold=math.inf)

    def test_empty_matches(self):
        """An empty match set packs an empty row that declines with 0."""
        db, matcher, query, _ = random_setup(5)
        plan = build_prediction_plan(db, query, [], matcher.params)
        assert plan.n_matches == 0
        for min_matches in (1, 3):
            assert serve_one(plan, 0.2, min_matches) == (None, 0)
        # Beside a row that serves, the empty row still declines alone.
        db, matcher, query, matches = random_setup(3)
        full = build_prediction_plan(db, query, matches, matcher.params)
        served, counts, _ = PlanStack([plan, full, plan], [1, 1, 1]).serve(
            np.array([0.2, 0.0, 0.2])
        )
        assert list(served) == [False, True, False]
        assert counts[0] == counts[2] == 0


_PLAN_BUFFERS = (
    "anchor",
    "end_times",
    "series_ends",
    "weights",
    "refs",
    "tail",
)


class TestPlanFromMatchSet:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ndim=st.integers(min_value=1, max_value=3),
        anchor=st.sampled_from(["last", "first"]),
        distance_weighted=st.booleans(),
        n_streams=st.integers(min_value=1, max_value=5),
    )
    def test_columns_build_the_plan_of_the_listed_matches(
        self, seed, ndim, anchor, distance_weighted, n_streams
    ):
        """A plan gathered from a match set's columns is, buffer for
        buffer and bit for bit, the plan of the same matches as a list,
        including every match's overflow fallback series."""
        db, matcher, query, matches = random_setup(
            seed, ndim=ndim, n_streams=n_streams
        )
        assert isinstance(matches, MatchSet)
        plans = [
            build_prediction_plan(
                db,
                query,
                given_matches,
                params=matcher.params,
                anchor=anchor,
                distance_weighted=distance_weighted,
            )
            for given_matches in (matches, list(matches))
        ]
        columnar, listed = plans
        assert columnar.n_matches == listed.n_matches == len(matches)
        for name in _PLAN_BUFFERS:
            a, b = getattr(columnar, name), getattr(listed, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        last = max(
            (db.stream(m.stream_id).series.end_time for m in matches),
            default=0.0,
        )
        for j, match in enumerate(matches):
            for t in (columnar.end_times[j] + 0.3, last + 1.0):
                expected = db.stream(match.stream_id).series.position_at(t)
                assert np.array_equal(columnar.match_position_at(j, t), expected)
                assert np.array_equal(listed.match_position_at(j, t), expected)

    def test_session_checkpoint_encodes_its_match_list(
        self, telemetry_session
    ):
        session, raw, _ = telemetry_session
        _warm_up(session, raw.iter_points())
        payload = session.checkpoint()
        assert payload["matches"] == encode_value(list(session.matches))
        assert json.dumps(payload["matches"]) == json.dumps(
            [encode_value(m) for m in session.matches]
        )

def assert_rows_are_the_reference(result, rows, horizons):
    """Each stacked row == ``reference_prediction`` on its own matches.

    ``rows[k]`` is ``(db, query, matches, params, min_matches)``; the
    usable count and the decline must agree as well as the bytes.
    """
    served, counts, positions = result
    for k, (db, query, matches, params, min_matches) in enumerate(rows):
        horizon = float(horizons[k])
        expected = reference_prediction(
            db, query, matches, horizon, params=params, min_matches=min_matches
        )
        assert counts[k] == n_usable(db, matches, horizon)
        assert served[k] == (expected is not None)
        if expected is not None:
            assert np.array_equal(positions[k], expected)


class TestFleetDispatch:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tenants=st.integers(min_value=1, max_value=5),
    )
    def test_stacked_serve_byte_identical_per_row(self, seed, n_tenants):
        """Ragged fleet rows == the frozen scalar loop per tenant."""
        rng = np.random.default_rng(seed)
        rows, plans = [], []
        for k in range(n_tenants):
            db, matcher, query, matches = random_setup(
                seed * 31 + k, ndim=2
            )
            if not matches:
                continue
            min_matches = int(rng.integers(1, 4))
            rows.append((db, query, matches, matcher.params, min_matches))
            plans.append(
                build_prediction_plan(db, query, matches, matcher.params)
            )
        if not rows:
            return
        fleet = PlanStack(plans, [row[-1] for row in rows])
        horizons = rng.uniform(0.0, 30.0, len(rows))
        assert_rows_are_the_reference(fleet.serve(horizons), rows, horizons)

    @staticmethod
    def _past_tail_horizon(plan, rng):
        """A horizon past some usable match's packed tail, if any has one.

        Such a match is answered by its series' ``position_at``.
        """
        last = plan.tail[0, -1]
        room = np.flatnonzero(plan.series_ends > last)
        if not len(room):
            return float(rng.uniform(0.0, 30.0))
        j = int(rng.choice(room))
        target = last[j] + 0.5 * (plan.series_ends[j] - last[j])
        return float(target - plan.end_times[j])

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ndim=st.sampled_from([1, 2]),
        n_narrow=st.integers(min_value=1, max_value=4),
        min_matches=st.integers(min_value=1, max_value=3),
    )
    def test_skewed_ragged_rows_byte_identical_per_row(
        self, seed, ndim, n_narrow, min_matches
    ):
        """One wide tenant beside single-match tenants (>= 50x apart),
        horizons past the packed tail: each row == the frozen loop."""
        rng = np.random.default_rng(seed)
        db, matcher, query, matches = random_setup(
            seed, ndim=ndim, n_streams=24
        )
        assume(len(matches) >= 50)
        rows = [(db, query, matches, matcher.params, min_matches)]
        for k in range(n_narrow):
            db_k, matcher_k, query_k, matches_k = random_setup(
                seed * 31 + k + 1, ndim=ndim
            )
            assume(matches_k)
            rows.append(
                (db_k, query_k, matches_k[:1], matcher_k.params, min_matches)
            )
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        plans = [
            build_prediction_plan(db_k, query_k, matches_k, params)
            for db_k, query_k, matches_k, params, _ in rows
        ]
        fleet = PlanStack(plans, [min_matches] * len(plans))
        horizons = np.array(
            [self._past_tail_horizon(plan, rng) for plan in plans]
        )
        assert_rows_are_the_reference(fleet.serve(horizons), rows, horizons)

    def test_manager_lifecycle_serves_match_fresh_dispatch_and_plans(
        self, small_cohort, monkeypatch
    ):
        """One manager through query refreshes, session open and close,
        and a tenant dropping to no plan: every serve of the live stack
        equals a freshly built one and, row by row, the frozen scalar
        loop over that tenant's matches, bit for bit."""
        serve = PlanStack.serve
        dispatches = []  # each distinct row set the live stack served
        stacks = set()

        def owners(fleet):
            """The session whose current plan each stacked row is."""
            by_plan = {
                id(session._plan): session for session in manager.sessions()
            }
            return [by_plan[id(plan)] for plan in fleet.plans]

        def checked_serve(fleet, horizons):
            result = serve(fleet, horizons)
            fresh = serve(PlanStack(fleet.plans, fleet.min_matches), horizons)
            served = result[0]
            assert np.array_equal(served, fresh[0])
            assert np.array_equal(result[1], fresh[1])
            assert np.array_equal(result[2][served], fresh[2][served])
            rows = [
                (
                    manager.database,
                    session.query,
                    session.matches,
                    session.config.similarity,
                    session.config.min_matches,
                )
                for session in owners(fleet)
            ]
            assert_rows_are_the_reference(result, rows, horizons)
            if fleet is manager._fleet:
                stacks.add(id(fleet))
                last = dispatches[-1] if dispatches else []
                if len(last) != len(fleet.plans) or any(
                    a is not b for a, b in zip(last, fleet.plans)
                ):
                    dispatches.append(list(fleet.plans))
            return result

        monkeypatch.setattr(PlanStack, "serve", checked_serve)
        patients = small_cohort.patient_ids[:3]
        raws = {
            pid: RespiratorySimulator(
                small_cohort.profile(pid), SessionConfig(duration=36.0)
            ).generate_session(7, seed=60 + k)
            for k, pid in enumerate(patients)
        }
        n_ticks = len(raws[patients[0]].times)
        manager = SessionManager(copy.deepcopy(small_cohort.db))
        live: dict[str, str] = {}  # stream id -> patient id

        def open_tenant(pid, session_id, min_matches):
            config = OnlineSessionConfig(min_matches=min_matches)
            session = manager.open_session(pid, session_id, config=config)
            live[session.stream_id] = pid

        open_tenant(patients[0], "A", 1)
        open_tenant(patients[1], "A", 3)
        dropped = None
        served_without_plan = 0
        for i, t in enumerate(raws[patients[0]].times):
            if i == n_ticks // 4:
                open_tenant(patients[2], "A", 2)
            if i == n_ticks // 2:
                closing = f"{patients[1]}/A"
                manager.close_session(closing)
                del live[closing]
                open_tenant(patients[1], "B", 2)
            if i == 2 * n_ticks // 3:
                dropped = f"{patients[0]}/A"
                manager.adopt_matches(dropped, [])
            manager.tick(
                float(t), {sid: raws[pid].values[i] for sid, pid in live.items()}
            )
            manager.predict_ahead_all(LATENCY)
            if dropped is not None:
                # Until its next query refresh, the tenant has no plan.
                session = manager.session(dropped)
                if session.prediction_plan() is None:
                    assert session not in owners(manager._fleet)
                    served_without_plan += 1
            if i % 90 == 45:
                # Far past every packed tail: the position_at fallback.
                manager.predict_at_all(float(t) + 20.0)
        manager.close(keep_streams=False)
        assert served_without_plan > 0
        assert len(stacks) == 1  # one live stack, restacked per row
        assert len(dispatches) >= 5
        assert any(len(plans) == 3 for plans in dispatches)
        assert any(len(plans) < 3 for plans in dispatches)


# -- live-session plan cache and counters --------------------------------------


@pytest.fixture
def telemetry_session(small_cohort):
    pid = small_cohort.patient_ids[0]
    raw = RespiratorySimulator(
        small_cohort.profile(pid), SessionConfig(duration=30.0)
    ).generate_session(5, seed=21)
    telemetry = Telemetry()
    # Own copy: the session (and the epoch tests) mutate the database,
    # and small_cohort is shared session-wide.
    db = copy.deepcopy(small_cohort.db)
    session = OnlineAnalysisSession(
        db,
        pid,
        session_id="PLAN-TEST",
        config=OnlineSessionConfig(),
        telemetry=telemetry,
    )
    yield session, raw, telemetry


def _warm_up(session, points):
    """Feed samples until the first query exists; return the iterator."""
    for t, position in points:
        session.observe(t, position)
        if session.query is not None and session.matches:
            return
    pytest.fail("session never warmed up")


class TestSessionPlanCache:
    def test_build_once_then_cache_hits(self, telemetry_session):
        session, raw, telemetry = telemetry_session
        points = raw.iter_points()
        _warm_up(session, points)
        for _ in range(3):
            assert session.predict_ahead(0.2) is not None
        snap = telemetry.registry.snapshot()
        assert snap.counter("prediction.plan_builds") == 1
        assert snap.counter("prediction.plan_cache_hits") == 2
        assert snap.histograms["prediction.plan_build_s"].count == 1

    def test_refresh_invalidates(self, telemetry_session):
        session, raw, telemetry = telemetry_session
        points = raw.iter_points()
        _warm_up(session, points)
        session.predict_ahead(0.2)
        refreshes = telemetry.registry.snapshot().counter(
            "session.query_refreshes"
        )
        for t, position in points:
            session.observe(t, position)
            snap = telemetry.registry.snapshot()
            if snap.counter("session.query_refreshes") > refreshes:
                break
        session.predict_ahead(0.2)
        snap = telemetry.registry.snapshot()
        assert snap.counter("prediction.plan_cache_invalidations") >= 1
        assert snap.counter("prediction.plan_builds") == 2

    def test_unmatched_stream_removal_keeps_plan(self, telemetry_session):
        session, raw, telemetry = telemetry_session
        db = session.db
        db.add_patient("EPOCH-DUMMY")
        db.add_stream(
            "EPOCH-DUMMY",
            "X",
            series=random_breathing_plr(np.random.default_rng(0), 6),
        )
        points = raw.iter_points()
        _warm_up(session, points)
        assert all(m.stream_id != "EPOCH-DUMMY/X" for m in session.matches)
        before = session.predict_ahead(0.2)
        db.remove_stream("EPOCH-DUMMY/X")
        after = session.predict_ahead(0.2)
        snap = telemetry.registry.snapshot()
        # The plan lives until the next refresh and serves the same bytes.
        assert snap.counter("prediction.plan_builds") == 1
        assert before is not None and np.array_equal(before, after)


# -- matched-stream removal ----------------------------------------------------


def _assert_same_answers(a, b):
    """Both declined, or the same bytes."""
    assert (a is None) == (b is None)
    if a is not None:
        assert a.tobytes() == b.tobytes()


class TestMatchedStreamRemoval:
    """A plan holds the series it read: removing a stream it matched, or
    re-creating that stream with other data, changes nothing it serves
    before the next refresh.  Each test compares with a twin database
    that kept the stream."""

    @staticmethod
    def _twin_sessions(small_cohort):
        """Two solo sessions fed alike until they serve; returns them, a
        historical stream the first one's plan matches, and the clock."""
        pid = small_cohort.patient_ids[0]
        raw = RespiratorySimulator(
            small_cohort.profile(pid), SessionConfig(duration=30.0)
        ).generate_session(5, seed=21)
        twins = [
            OnlineAnalysisSession(copy.deepcopy(small_cohort.db), pid, "RM")
            for _ in range(2)
        ]
        for t, position in raw.iter_points():
            answers = []
            for session in twins:
                session.observe(t, position)
                answers.append(session.predict_ahead(LATENCY))
            if answers[0] is not None:
                break
        else:
            pytest.fail("session never served")
        _assert_same_answers(*answers)
        matched = sorted(
            {m.stream_id for m in twins[0].matches} - {twins[0].stream_id}
        )
        assert matched, "vacuous: no historical match"
        return twins, matched[0], t

    @staticmethod
    def _assert_twins_agree(changed, kept, now):
        """The next serves, one far past every packed tail, agree."""
        for horizon in (LATENCY, 20.0, LATENCY):
            _assert_same_answers(
                changed.predict_at(now + horizon),
                kept.predict_at(now + horizon),
            )
        assert changed.predict_ahead(LATENCY) is not None

    def test_solo_serves_after_matched_stream_removal(self, small_cohort):
        (changed, kept), matched, now = self._twin_sessions(small_cohort)
        changed.db.remove_stream(matched)
        self._assert_twins_agree(changed, kept, now)

    def test_recreated_stream_does_not_change_the_plan(self, small_cohort):
        """A matched stream re-created under its id with positions x2 is
        not read at the old match offsets."""
        (changed, kept), matched, now = self._twin_sessions(small_cohort)
        db = changed.db
        record = db.stream(matched)
        series = record.series
        db.remove_stream(matched)
        db.add_stream(
            record.patient_id,
            record.session_id,
            series=PLRSeries.from_dense(
                series.times, 2.0 * series.positions, series.states
            ),
            stream_id=matched,
        )
        self._assert_twins_agree(changed, kept, now)

    def test_fleet_serves_after_matched_stream_removal(self, small_cohort):
        patients = small_cohort.patient_ids[:3]
        raws = {
            pid: RespiratorySimulator(
                small_cohort.profile(pid), SessionConfig(duration=30.0)
            ).generate_session(7, seed=80 + k)
            for k, pid in enumerate(patients)
        }
        twins = []
        for _ in range(2):
            manager = SessionManager(copy.deepcopy(small_cohort.db))
            for pid in patients:
                manager.open_session(pid, "RM")
            twins.append(manager)
        changed, kept = twins
        live = changed.live_stream_ids()
        matched = None
        for i, t in enumerate(raws[patients[0]].times):
            frame = {
                f"{pid}/RM": raws[pid].values[i] for pid in patients
            }
            answers = []
            for manager in twins:
                manager.tick(float(t), frame)
                answers.append(manager.predict_ahead_all(LATENCY))
            for sid in live:
                _assert_same_answers(answers[0][sid], answers[1][sid])
            historical = {
                m.stream_id
                for session in changed.sessions()
                if session.prediction_plan() is not None
                for m in session.matches
            } - set(live)
            if historical:
                matched = sorted(historical)[0]
                break
        assert matched is not None, "vacuous: no tenant matched history"
        changed.database.remove_stream(matched)
        for latency in (LATENCY, 20.0, LATENCY):
            a = changed.predict_ahead_all(latency)
            b = kept.predict_ahead_all(latency)
            assert list(a) == list(b)
            for sid in live:
                _assert_same_answers(a[sid], b[sid])
        assert any(p is not None for p in a.values())


class TestPredictionsTotalCounter:
    def test_declines_count_in_totals(self, telemetry_session):
        """Regression: warm-up declines used to vanish from rate metrics —
        they skipped the timed path without incrementing any request
        counter.  Every answered predict_at now lands in
        ``session.predictions_total`` = served + declined."""
        session, raw, telemetry = telemetry_session
        points = raw.iter_points()
        t, position = next(points)
        session.observe(t, position)
        assert session.predict_ahead(0.2) is None  # warm-up decline
        snap = telemetry.registry.snapshot()
        assert snap.counter("session.predictions_total") == 1
        assert snap.counter("session.predictions_declined") == 1
        assert snap.counter("session.predictions_served") == 0
        _warm_up(session, points)
        assert session.predict_ahead(0.2) is not None
        snap = telemetry.registry.snapshot()
        assert snap.counter("session.predictions_total") == snap.counter(
            "session.predictions_served"
        ) + snap.counter("session.predictions_declined")
