"""Vectorised prediction-plan engine vs the frozen scalar reference.

The plan kernel (``core/prediction.PredictionPlan``) and the session
service's fleet dispatch must be **byte-identical** to the naive scalar
loop frozen in ``testing/oracle.reference_prediction`` — every test here
asserts exact float equality (``np.array_equal``), not closeness.
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
    build_prediction_plan,
    horizon_grid,
)
from repro.database.store import MotionDatabase
from repro.events import encode_value
from repro.obs.telemetry import Telemetry
from repro.service.manager import SessionManager, _FleetDispatch
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
        """plan.serve == frozen scalar loop, including decline agreement.

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
        served, n_usable = plan.serve(horizon, min_matches=min_matches)
        if expected is None:
            assert served is None
            assert n_usable < max(min_matches, 1)
        else:
            assert served is not None
            assert np.array_equal(expected, served)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_horizons=st.integers(min_value=1, max_value=12),
        min_matches=st.integers(min_value=1, max_value=3),
    )
    def test_serve_many_equals_per_horizon_serves(
        self, seed, n_horizons, min_matches
    ):
        """One batched grid dispatch == n independent serves, bitwise."""
        rng = np.random.default_rng(seed)
        db, matcher, query, matches = random_setup(seed)
        plan = build_prediction_plan(db, query, matches, matcher.params)
        horizons = rng.uniform(0.0, 30.0, n_horizons)
        batched = plan.serve_many(horizons, min_matches=min_matches)
        assert len(batched) == n_horizons
        for h, got in zip(horizons, batched):
            expected, _ = plan.serve(float(h), min_matches=min_matches)
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(expected, got)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        horizon=st.floats(min_value=0.0, max_value=25.0),
    )
    def test_combine_is_the_scalar_loop(self, seed, horizon):
        """OnlinePredictor.combine (plan-backed) == its frozen loop."""
        db, matcher, query, matches = random_setup(seed)
        if not matches:
            return
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        assert np.array_equal(
            predictor.combine(query, matches, horizon),
            predictor._combine_scalar(query, matches, horizon),
        )

    def test_combine_negative_horizon_uses_scalar_path(self):
        db, matcher, query, matches = random_setup(3)
        assert matches, "vacuous fixture"
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        assert np.array_equal(
            predictor.combine(query, matches, -0.4),
            predictor._combine_scalar(query, matches, -0.4),
        )

    def test_empty_matches(self):
        db, matcher, query, _ = random_setup(5)
        plan = build_prediction_plan(db, query, [], matcher.params)
        assert plan.serve(0.2) == (None, 0)
        assert plan.serve_many([0.1, 0.2]) == [None, None]
        with pytest.raises(ValueError):
            plan.combine_at(0.2)


_PLAN_BUFFERS = (
    "anchor",
    "end_times",
    "series_ends",
    "weights",
    "refs",
    "tail",
    "tail_upper",
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

class TestFleetDispatch:
    class _FakeSession:
        """Just enough session surface for _FleetDispatch (min_matches)."""

        def __init__(self, min_matches):
            self.config = OnlineSessionConfig(min_matches=min_matches)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tenants=st.integers(min_value=1, max_value=5),
    )
    def test_stacked_serve_byte_identical_per_row(self, seed, n_tenants):
        """Padded fleet rows == each tenant's own plan.serve, bitwise."""
        rng = np.random.default_rng(seed)
        rows = []
        for k in range(n_tenants):
            db, matcher, query, matches = random_setup(
                seed * 31 + k, ndim=2
            )
            if not matches:
                continue
            plan = build_prediction_plan(db, query, matches, matcher.params)
            rows.append(
                (self._FakeSession(int(rng.integers(1, 4))), plan)
            )
        if not rows:
            return
        fleet = _FleetDispatch([s for s, _ in rows], [p for _, p in rows])
        horizons = rng.uniform(0.0, 30.0, len(rows))
        served, counts, positions = fleet.serve(horizons)
        for k, (session, plan) in enumerate(rows):
            expected, n_usable = plan.serve(
                float(horizons[k]), min_matches=session.config.min_matches
            )
            assert counts[k] == n_usable
            if expected is None:
                assert not served[k]
            else:
                assert served[k]
                assert np.array_equal(expected, positions[k])

    @staticmethod
    def _past_tail_horizon(plan, rng):
        """A horizon past some usable match's packed tail, if any has one.

        Such a match is answered by its series' ``position_at``.
        """
        last = plan.tail_upper[-1]
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
        horizons past the packed tail: each row == its plan.serve."""
        rng = np.random.default_rng(seed)
        db, matcher, query, matches = random_setup(
            seed, ndim=ndim, n_streams=24
        )
        assume(len(matches) >= 50)
        plans = [build_prediction_plan(db, query, matches, matcher.params)]
        for k in range(n_narrow):
            db_k, matcher_k, query_k, matches_k = random_setup(
                seed * 31 + k + 1, ndim=ndim
            )
            assume(matches_k)
            plans.append(
                build_prediction_plan(
                    db_k, query_k, matches_k[:1], matcher_k.params
                )
            )
        order = rng.permutation(len(plans))
        plans = [plans[i] for i in order]
        sessions = [self._FakeSession(min_matches) for _ in plans]
        fleet = _FleetDispatch(sessions, plans)
        horizons = np.array(
            [self._past_tail_horizon(plan, rng) for plan in plans]
        )
        served, counts, positions = fleet.serve(horizons)
        for k, plan in enumerate(plans):
            expected, n_usable = plan.serve(
                float(horizons[k]), min_matches=min_matches
            )
            assert counts[k] == n_usable
            assert served[k] == (expected is not None)
            if expected is not None:
                assert np.array_equal(expected, positions[k])

    def test_manager_lifecycle_serves_match_fresh_dispatch_and_plans(
        self, small_cohort, monkeypatch
    ):
        """One manager through query refreshes, session open and close,
        and a tenant dropping to no plan: every serve of the cached
        dispatch equals a freshly built one and each row's own
        plan.serve, bit for bit."""
        serve = _FleetDispatch.serve
        dispatches = []

        def checked_serve(fleet, horizons):
            served, counts, positions = serve(fleet, horizons)
            fresh = serve(_FleetDispatch(fleet.sessions, fleet.plans), horizons)
            assert np.array_equal(served, fresh[0])
            assert np.array_equal(counts, fresh[1])
            for k, (session, plan) in enumerate(
                zip(fleet.sessions, fleet.plans)
            ):
                expected, n_usable = plan.serve(
                    float(horizons[k]), min_matches=session.config.min_matches
                )
                assert counts[k] == n_usable
                assert served[k] == (expected is not None)
                if expected is not None:
                    assert np.array_equal(positions[k], expected)
                    assert np.array_equal(fresh[2][k], expected)
            if not dispatches or dispatches[-1] is not fleet:
                dispatches.append(fleet)
            return served, counts, positions

        monkeypatch.setattr(_FleetDispatch, "serve", checked_serve)
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
                    assert session not in manager._fleet.sessions
                    served_without_plan += 1
            if i % 90 == 45:
                # Far past every packed tail: the position_at fallback.
                manager.predict_at_all(float(t) + 20.0)
        manager.close(keep_streams=False)
        assert served_without_plan > 0
        assert len(dispatches) >= 5
        assert any(len(fleet.plans) == 3 for fleet in dispatches)
        assert any(len(fleet.plans) < 3 for fleet in dispatches)


class TestHorizonGrid:
    def test_values(self):
        np.testing.assert_array_equal(
            horizon_grid(4, 0.5), [0.5, 1.0, 1.5, 2.0]
        )

    def test_memoised_and_read_only(self):
        a = horizon_grid(8, 0.25)
        assert horizon_grid(8, 0.25) is a
        assert horizon_grid(8, 0.5) is not a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 99.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            horizon_grid(0, 0.5)
        with pytest.raises(ValueError):
            horizon_grid(4, 0.0)


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

    def test_stream_removal_forces_rebuild(self, telemetry_session):
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
        before = session.predict_ahead(0.2)
        db.remove_stream("EPOCH-DUMMY/X")
        after = session.predict_ahead(0.2)
        snap = telemetry.registry.snapshot()
        # The epoch bump forces a rebuild, and (no matches changed) the
        # rebuilt plan serves the same bytes.
        assert snap.counter("prediction.plan_builds") == 2
        assert np.array_equal(before, after)


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
