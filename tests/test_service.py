"""Tests for the service layer: builder, session manager, bus wiring.

The centrepiece is the multi-tenancy isolation contract: a
:class:`~repro.service.manager.SessionManager` hosting several concurrent
live sessions must produce **byte-identical** matches and predictions to
running each session alone against the same historical database.
"""

import copy

import numpy as np
import pytest

from repro.analysis.monitors import ThresholdAlarm
from repro.core.model import BreathingState, Vertex
from repro.core.online import OnlineAnalysisSession, OnlineSessionConfig
from repro.core.similarity import SimilarityParams
from repro.database.backend import LoggedBackend
from repro.database.store import MotionDatabase
from repro.events import EventBus
from repro.gating.gating import GatingWindow
from repro.obs import Telemetry
from repro.service import (
    GatingRecorder,
    PipelineBuilder,
    SessionManager,
    TelemetryRecorder,
    attach_alarm,
    attach_monitor,
    attach_vertex_log,
)
from repro.signals.respiratory import RespiratorySimulator, SessionConfig
from repro.testing.faults import FaultInjector, FaultPlan, SimulatedCrash

from conftest import make_series

N_TENANTS = 3
LIVE_DURATION = 20.0
LATENCY = 0.2


# -- builder -------------------------------------------------------------------


class TestPipelineBuilder:
    def test_from_session_config(self):
        config = OnlineSessionConfig(
            similarity=SimilarityParams(distance_threshold=3.5),
            min_matches=4,
            max_matches=9,
        )
        builder = PipelineBuilder.from_session_config(config)
        assert builder.similarity.distance_threshold == 3.5
        assert builder.min_matches == 4 and builder.max_matches == 9

    def test_matcher_uses_builder_params(self):
        params = SimilarityParams(distance_threshold=1.25)
        builder = PipelineBuilder(similarity=params, use_index=False)
        matcher = builder.build_matcher(MotionDatabase())
        assert matcher.params is params
        assert matcher.use_index is False

    def test_predictor_uses_builder_params(self):
        db = MotionDatabase()
        builder = PipelineBuilder(min_matches=5, max_matches=7)
        predictor = builder.build_predictor(db, builder.build_matcher(db))
        assert predictor.min_matches == 5 and predictor.max_matches == 7

    def test_build_full_pipeline(self):
        db = MotionDatabase()
        db.add_patient("PA")
        pipeline = PipelineBuilder().build(db, "PA", "LIVE")
        assert pipeline.ingestor is not None
        assert pipeline.ingestor.stream_id == "PA/LIVE"
        assert "PA/LIVE" in db
        assert pipeline.matcher is not None and pipeline.predictor is not None

    def test_build_without_patient_has_no_ingestor(self):
        pipeline = PipelineBuilder().build(MotionDatabase())
        assert pipeline.ingestor is None

    def test_negative_max_matches_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_matches"):
            PipelineBuilder(max_matches=-1)

    def test_from_domain_stamps_metadata(self):
        from repro.signals.domains import robot_arm_spec

        spec = robot_arm_spec()
        builder = PipelineBuilder.from_domain(spec)
        db = MotionDatabase()
        db.add_patient("arm")
        ingestor = builder.build_ingestor(db, "arm", "run0")
        assert db.stream(ingestor.stream_id).metadata == {
            "domain": "robot_arm"
        }
        # Each ingestor gets a *fresh* automaton (they are stateful).
        other = builder.build_ingestor(db, "arm", "run1")
        assert ingestor.segmenter.fsa is not other.segmenter.fsa


# -- multi-tenant byte-identity ------------------------------------------------


def _live_raws(cohort):
    """One fresh raw session per tenant, on a shared acquisition clock."""
    session_config = SessionConfig(duration=LIVE_DURATION)
    raws = {}
    for k, profile in enumerate(cohort.profiles[:N_TENANTS]):
        raws[profile.patient_id] = RespiratorySimulator(
            profile, session_config
        ).generate_session(9, seed=40 + k)
    return raws


def _solo_trace(db, raw):
    """Run one session alone; record every prediction plus final matches."""
    session = OnlineAnalysisSession(
        db, raw.patient_id, "MT", config=OnlineSessionConfig()
    )
    predictions = []
    for t, position in raw.iter_points():
        session.observe(t, position)
        predictions.append(session.predict_ahead(LATENCY))
    matches = [(m.stream_id, m.start, m.distance) for m in session.matches]
    session.finish(keep_stream=False)
    return predictions, matches


def _assert_same_predictions(solo, served):
    assert len(solo) == len(served)
    for a, b in zip(solo, served):
        if a is None or b is None:
            assert a is None and b is None
        else:
            # Byte-identical: same floats, not merely close.
            np.testing.assert_array_equal(a, b)


class TestMultiTenantIsolation:
    @pytest.fixture(scope="class")
    def traces(self, small_cohort):
        raws = _live_raws(small_cohort)

        solo = {
            patient_id: _solo_trace(copy.deepcopy(small_cohort.db), raw)
            for patient_id, raw in raws.items()
        }

        manager = SessionManager(copy.deepcopy(small_cohort.db))
        by_stream = {}
        for patient_id, raw in raws.items():
            session = manager.open_session(
                patient_id, "MT", config=OnlineSessionConfig()
            )
            by_stream[session.stream_id] = raw
        times = next(iter(by_stream.values())).times
        served = {sid: [] for sid in by_stream}
        for i, t in enumerate(times):
            manager.tick(
                float(t),
                {sid: raw.values[i] for sid, raw in by_stream.items()},
            )
            for sid in by_stream:
                served[sid].append(manager.predict_ahead(sid, LATENCY))
        served_matches = {
            sid: [
                (m.stream_id, m.start, m.distance)
                for m in manager.session(sid).matches
            ]
            for sid in by_stream
        }
        manager.close(keep_streams=False)
        return raws, solo, served, served_matches

    def test_enough_tenants(self, traces):
        raws, solo, served, _ = traces
        assert len(raws) >= 3

    def test_predictions_byte_identical_to_solo(self, traces):
        raws, solo, served, _ = traces
        for patient_id, raw in raws.items():
            stream_id = f"{patient_id}/MT"
            _assert_same_predictions(solo[patient_id][0], served[stream_id])

    def test_sessions_actually_predicted(self, traces):
        raws, solo, served, _ = traces
        for stream_id, predictions in served.items():
            assert any(p is not None for p in predictions), stream_id

    def test_matches_byte_identical_to_solo(self, traces):
        raws, solo, served, served_matches = traces
        for patient_id in raws:
            stream_id = f"{patient_id}/MT"
            assert solo[patient_id][1] == served_matches[stream_id]
            assert solo[patient_id][1], stream_id  # non-vacuous

    def test_no_tenant_matches_another_live_stream(self, traces):
        raws, solo, served, served_matches = traces
        live = {f"{patient_id}/MT" for patient_id in raws}
        for stream_id, matches in served_matches.items():
            foreign = live - {stream_id}
            assert all(m[0] not in foreign for m in matches)


class TestFleetBatchedServing:
    """predict_ahead_all == looping predict_ahead, bytes and counters."""

    @pytest.fixture(scope="class")
    def fleet_traces(self, small_cohort):
        raws = _live_raws(small_cohort)

        def run(batched):
            manager = SessionManager(
                copy.deepcopy(small_cohort.db), telemetry=Telemetry()
            )
            by_stream = {}
            for patient_id, raw in raws.items():
                session = manager.open_session(
                    patient_id, "MT", config=OnlineSessionConfig()
                )
                by_stream[session.stream_id] = raw
            times = next(iter(by_stream.values())).times
            out = {sid: [] for sid in by_stream}
            for i, t in enumerate(times):
                manager.tick(
                    float(t),
                    {sid: raw.values[i] for sid, raw in by_stream.items()},
                )
                if batched:
                    results = manager.predict_ahead_all(LATENCY)
                    for sid in by_stream:
                        out[sid].append(results[sid])
                else:
                    for sid in by_stream:
                        out[sid].append(manager.predict_ahead(sid, LATENCY))
            snapshot = manager.telemetry.snapshot()
            manager.close(keep_streams=False)
            return out, snapshot

        looped, looped_snap = run(batched=False)
        fleet, fleet_snap = run(batched=True)
        return looped, looped_snap, fleet, fleet_snap

    def test_byte_identical_to_per_tenant_loop(self, fleet_traces):
        looped, _, fleet, _ = fleet_traces
        assert set(looped) == set(fleet)
        for stream_id in looped:
            _assert_same_predictions(looped[stream_id], fleet[stream_id])
            assert any(p is not None for p in fleet[stream_id]), stream_id

    def test_open_order_preserved(self, fleet_traces):
        looped, _, fleet, _ = fleet_traces
        assert list(looped) == list(fleet)

    def test_counter_parity_with_loop(self, fleet_traces):
        _, looped_snap, _, fleet_snap = fleet_traces
        for name in (
            "session.predictions_total",
            "session.predictions_served",
            "session.predictions_declined",
            "prediction.plan_builds",
            "prediction.plan_cache_invalidations",
        ):
            assert looped_snap.merged.counter(
                name
            ) == fleet_snap.merged.counter(name), name

    def test_batched_serve_instrumented(self, fleet_traces):
        _, looped_snap, _, fleet_snap = fleet_traces
        batches = fleet_snap.registry.counter("service.predict_batches")
        assert batches > 0
        assert (
            fleet_snap.registry.histograms["prediction.plan_serve_s"].count
            == batches
        )
        assert looped_snap.registry.counter("service.predict_batches") == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSoloFleetRequestParity:
    """predict_at_all == per-tenant predict_at for every kind of request:
    a target inside the observed PLR, ``now + latency``, one far past the
    packed tails, non-finite targets, a tenant before its first sample
    and tenants warming up.  Positions, counters and
    ``prediction_served`` events must all agree, and no request makes
    numpy warn (NaN and +inf targets decline before the stack)."""

    COUNTERS = (
        "session.predictions_total",
        "session.predictions_served",
        "session.predictions_declined",
        "prediction.plan_builds",
        "prediction.plan_cache_hits",
    )

    @pytest.fixture(scope="class")
    def runs(self, small_cohort):
        patients = small_cohort.patient_ids[:4]
        raws = {
            pid: RespiratorySimulator(
                small_cohort.profile(pid), SessionConfig(duration=36.0)
            ).generate_session(9, seed=70 + k)
            for k, pid in enumerate(patients)
        }
        times = raws[patients[0]].times
        # The tick each tenant's samples start at: the last tenant has
        # none for two thirds of the run, then warms up.
        starts = dict(zip(patients, (0, 0, len(times) // 4, 2 * len(times) // 3)))

        def run(fleet):
            manager = SessionManager(
                copy.deepcopy(small_cohort.db), telemetry=Telemetry()
            )
            events = []
            manager.events.subscribe("prediction_served", events.append)
            for pid in patients:
                manager.open_session(pid, "PAR", config=OnlineSessionConfig())
            answers = []
            for i, t in enumerate(times):
                t = float(t)
                manager.tick(
                    t,
                    {
                        f"{pid}/PAR": raws[pid].values[i]
                        for pid in patients
                        if i >= starts[pid]
                    },
                )
                targets = [("past", t - 3.0)]
                if (i // 90) % 3 != 2:
                    # Every third 3 s window asks only for past targets,
                    # which must not build a plan.
                    targets.append(("ahead", t + LATENCY))
                    if i % 10 == 0:
                        targets += [
                            ("far", t + 20.0),
                            ("nan", float("nan")),
                            ("inf", float("inf")),
                            ("-inf", -float("inf")),
                        ]
                for kind, target in targets:
                    if fleet:
                        out = manager.predict_at_all(target)
                    else:
                        out = {
                            sid: manager.predict_at(sid, target)
                            for sid in manager.live_stream_ids()
                        }
                    answers.append((i, kind, out))
            snapshot = manager.telemetry.snapshot().merged
            manager.close(keep_streams=False)
            return answers, events, snapshot

        return run(fleet=False), run(fleet=True)

    def test_positions_bit_identical(self, runs):
        (solo, _, _), (fleet, _, _) = runs
        assert len(solo) == len(fleet)
        for (_, _, a), (_, _, b) in zip(solo, fleet):
            assert list(a) == list(b)
            for sid in a:
                assert (a[sid] is None) == (b[sid] is None)
                if a[sid] is not None:
                    assert a[sid].tobytes() == b[sid].tobytes()

    def test_every_request_kind_occurs(self, runs):
        (solo, _, snapshot), _ = runs
        served: dict[str, int] = {}
        for _, kind, answers in solo:
            served[kind] = served.get(kind, 0) + sum(
                p is not None for p in answers.values()
            )
        assert served["past"] and served["ahead"] and served["-inf"]
        assert served["nan"] == served["inf"] == 0
        # The last tenant declines before its first sample, then while
        # warming up.
        late = list(solo[0][2])[-1]
        n_ticks = solo[-1][0] + 1
        assert all(
            answers[late] is None
            for i, _, answers in solo
            if i < 2 * n_ticks // 3 + 30
        )
        assert snapshot.counter("session.predictions_declined") > 0

    def test_counters_equal(self, runs):
        (_, _, solo), (_, _, fleet) = runs
        for name in self.COUNTERS:
            assert solo.counter(name) == fleet.counter(name), name
        assert fleet.counter("session.predictions_served") > 0

    def test_prediction_served_events_equal(self, runs):
        (_, solo, _), (_, fleet, _) = runs

        def key(event):
            data = dict(event.data)
            data["position"] = data["position"].tobytes()
            return data

        assert solo, "vacuous: no prediction served"
        assert [key(e) for e in solo] == [key(e) for e in fleet]


# -- manager lifecycle ---------------------------------------------------------


class TestSessionManager:
    def test_open_registers_unknown_patient(self):
        manager = SessionManager()
        session = manager.open_session("fresh")
        assert "fresh" in manager.database.patient_ids
        assert manager.n_sessions == 1
        assert manager.live_stream_ids() == (session.stream_id,)

    def test_lifecycle_events(self):
        manager = SessionManager()
        kinds = []
        for kind in ("session_opened", "session_closed"):
            manager.events.subscribe(kind, lambda e: kinds.append(e.kind))
        session = manager.open_session("PA")
        manager.close_session(session.stream_id)
        assert kinds == ["session_opened", "session_closed"]
        assert manager.n_sessions == 0

    def test_close_session_can_drop_stream(self):
        manager = SessionManager()
        session = manager.open_session("PA")
        manager.close_session(session.stream_id, keep_stream=False)
        assert session.stream_id not in manager.database

    def test_context_manager_closes_all(self):
        with SessionManager() as manager:
            manager.open_session("PA")
            manager.open_session("PB")
            assert manager.n_sessions == 2
        assert manager.n_sessions == 0

    def test_tick_routes_and_reports_commits(self, raw_stream):
        manager = SessionManager()
        session = manager.open_session(raw_stream.patient_id)
        total = 0
        for i, t in enumerate(raw_stream.times[:300]):
            committed = manager.tick(
                float(t), {session.stream_id: raw_stream.values[i]}
            )
            assert set(committed) <= {session.stream_id}
            total += len(committed.get(session.stream_id, []))
        assert total == len(session.ingestor.series)
        assert total > 0

    def test_tick_ignores_unknown_streams(self):
        manager = SessionManager()
        assert manager.tick(0.0, {"nobody/LIVE": 1.0}) == {}

    def test_sessions_share_one_matcher(self):
        manager = SessionManager()
        a = manager.open_session("PA")
        b = manager.open_session("PB")
        assert a.matcher is manager.matcher
        assert b.matcher is manager.matcher

    def test_negative_max_matches_rejected_before_any_sample(self):
        manager = SessionManager()
        with pytest.raises(ValueError, match="max_matches"):
            manager.open_session(
                "PA", config=OnlineSessionConfig(max_matches=-1)
            )
        assert manager.n_sessions == 0

    def test_default_config_mirrors_builder(self):
        builder = PipelineBuilder(min_matches=3, max_matches=11)
        manager = SessionManager(builder=builder)
        config = manager.default_config()
        assert config.min_matches == 3 and config.max_matches == 11
        assert config.similarity is builder.similarity


# -- bus wiring ----------------------------------------------------------------


class _RecordingWriter:
    def __init__(self):
        self.committed = []
        self.amended = []

    def extend(self, vertices):
        self.committed.extend(vertices)

    def amend(self, vertex):
        self.amended.append(vertex)


def _vertices(n=3):
    return list(make_series(1))[:n]


class TestWiring:
    def test_vertex_log_follows_one_stream(self):
        bus = EventBus()
        writer = _RecordingWriter()
        attach_vertex_log(bus, writer, stream_id="PA/LIVE")
        vertices = _vertices()
        bus.publish(
            "vertex_committed", stream_id="PA/LIVE", vertices=tuple(vertices)
        )
        bus.publish(
            "vertex_committed", stream_id="PB/LIVE", vertices=tuple(vertices)
        )
        bus.publish("vertex_amended", stream_id="PA/LIVE", vertex=vertices[0])
        bus.publish("vertex_amended", stream_id="PB/LIVE", vertex=vertices[0])
        assert writer.committed == vertices
        assert writer.amended == [vertices[0]]

    def test_vertex_log_unsubscribe(self):
        bus = EventBus()
        writer = _RecordingWriter()
        on_commit, on_amend = attach_vertex_log(bus, writer)
        bus.unsubscribe("vertex_committed", on_commit)
        bus.unsubscribe("vertex_amended", on_amend)
        bus.publish(
            "vertex_committed", stream_id="PA/LIVE",
            vertices=tuple(_vertices()),
        )
        assert writer.committed == []

    def test_monitor_sees_each_vertex(self):
        bus = EventBus()
        seen = []

        class Monitor:
            def update(self, vertex):
                seen.append(vertex)

        attach_monitor(bus, Monitor())
        vertices = _vertices()
        bus.publish(
            "vertex_committed", stream_id="PA/LIVE", vertices=tuple(vertices)
        )
        assert seen == vertices

    def test_alarm_transitions_republished(self):
        bus = EventBus()

        class Primary:
            def update(self, vertex):
                return float(vertex.position[0])

        alarm = ThresholdAlarm(Primary(), low=-5.0, high=5.0)
        attach_alarm(bus, alarm)
        alarms = []
        bus.subscribe("alarm", alarms.append)
        vertices = [
            Vertex(0.0, (0.0,), BreathingState.IN),
            Vertex(1.0, (10.0,), BreathingState.EX),  # leaves the band
            Vertex(2.0, (0.0,), BreathingState.EOE),  # re-enters
        ]
        bus.publish(
            "vertex_committed", stream_id="PA/LIVE", vertices=tuple(vertices)
        )
        assert [a["active"] for a in alarms] == [True, False]
        assert alarms[0]["stream_id"] == "PA/LIVE"
        assert alarms[0]["value"] == 10.0

    def test_gating_recorder_duty_cycle(self):
        bus = EventBus()
        recorder = GatingRecorder(bus, GatingWindow(-1.0, 1.0))
        for time, primary in [(0.0, 0.5), (1.0, 3.0), (2.0, -0.5), (3.0, 9.0)]:
            bus.publish(
                "prediction_served",
                stream_id="PA/LIVE",
                time=time,
                horizon=LATENCY,
                position=np.asarray([primary]),
                n_matches=4,
            )
        assert [on for _, on, _ in recorder.decisions] == [
            True, False, True, False,
        ]
        assert recorder.duty_cycle == 0.5

    def test_gating_recorder_empty_is_nan(self):
        recorder = GatingRecorder(EventBus(), GatingWindow(-1.0, 1.0))
        assert np.isnan(recorder.duty_cycle)


class TestTelemetryAggregation:
    """Per-tenant telemetry scopes roll up exactly into the fleet view."""

    @pytest.fixture(scope="class")
    def telemetry_run(self, small_cohort):
        raws = _live_raws(small_cohort)
        telemetry = Telemetry(snapshot_interval=5.0)
        manager = SessionManager(
            copy.deepcopy(small_cohort.db), telemetry=telemetry
        )
        recorder = TelemetryRecorder(manager.events)
        by_stream = {}
        for patient_id, raw in raws.items():
            session = manager.open_session(
                patient_id, "MT", config=OnlineSessionConfig()
            )
            by_stream[session.stream_id] = raw
        gauge_open = telemetry.registry.snapshot().gauges[
            "service.live_sessions"
        ]
        times = next(iter(by_stream.values())).times
        for i, t in enumerate(times):
            manager.tick(
                float(t),
                {sid: raw.values[i] for sid, raw in by_stream.items()},
            )
        final = telemetry.snapshot(time=float(times[-1]))
        manager.close(keep_streams=False)
        gauge_closed = telemetry.registry.snapshot().gauges[
            "service.live_sessions"
        ]
        return raws, len(times), final, recorder, gauge_open, gauge_closed

    def test_one_scope_per_tenant(self, telemetry_run):
        raws, _, final, _, _, _ = telemetry_run
        assert set(final.scopes) == {f"{pid}/MT" for pid in raws}
        assert len(final.scopes) == N_TENANTS

    def test_scope_counts_sum_to_merged_global(self, telemetry_run):
        raws, n_ticks, final, _, _, _ = telemetry_run
        per_tenant = [
            final.scopes[scope].counter("session.samples")
            for scope in final.scopes
        ]
        assert all(count == n_ticks for count in per_tenant)
        merged = final.merged
        assert merged.counter("session.samples") == sum(per_tenant)
        # Service-level counters live on the root and survive the fold.
        assert merged.counter("service.ticks") == n_ticks
        assert merged.counter("service.frames") == n_ticks * N_TENANTS

    def test_service_root_counters(self, telemetry_run):
        _, n_ticks, final, _, _, _ = telemetry_run
        root = final.registry
        assert root.counter("service.ticks") == n_ticks
        assert root.counter("service.frames") == n_ticks * N_TENANTS
        assert root.histograms["service.tick_s"].count == n_ticks
        samples = root.histograms["service.tick_samples"]
        assert samples.count == n_ticks
        assert samples.vmin == samples.vmax == N_TENANTS

    def test_live_sessions_gauge_tracks_lifecycle(self, telemetry_run):
        _, _, _, _, gauge_open, gauge_closed = telemetry_run
        assert gauge_open == N_TENANTS
        assert gauge_closed == 0

    def test_periodic_snapshots_published(self, telemetry_run):
        _, _, final, recorder, _, _ = telemetry_run
        # 20 stream-seconds at a 5 s cadence: the baseline snapshot plus
        # one per elapsed interval.
        assert len(recorder.snapshots) >= 1 + int(LIVE_DURATION / 5.0) - 1
        assert recorder.latest is recorder.snapshots[-1]
        published_times = [s.time for s in recorder.snapshots]
        assert published_times == sorted(published_times)
        # The bus snapshots are cuts of the same tree the final snapshot
        # closed over; counters only ever grow between cuts.
        assert (
            recorder.latest.merged.counter("session.samples")
            <= final.merged.counter("session.samples")
        )

    def test_span_tree_covers_the_pipeline(self, telemetry_run):
        _, _, final, _, _, _ = telemetry_run
        spans = {(s.name, s.parent) for s in final.spans}
        assert ("service.tick", None) in spans
        assert ("matcher.find", "service.tick") in spans


class TestTelemetryCrashRecovery:
    """Crash/replay must not double-count commits (chaos-seed contract).

    The facade counts *attempted* writes before delegation; the logged
    backend counts *durable* journal records only after a full batch
    lands.  An injected crash makes the two diverge by exactly the lost
    batch, and reopening the directory (the replay path) must not bump
    either counter.
    """

    def test_no_double_counted_commits_across_crash_replay(self, tmp_path):
        vertices = list(make_series(cycles=4))
        crash_at = 7
        injector = FaultInjector(FaultPlan.crash_at("log.append", crash_at))
        telemetry = Telemetry()
        db = MotionDatabase(
            backend=LoggedBackend(tmp_path, injector=injector),
            telemetry=telemetry,
        )
        db.add_patient("PA")
        db.add_stream("PA", "LIVE")
        committed = 0
        with pytest.raises(SimulatedCrash):
            for vertex in vertices:
                db.commit_vertices("PA/LIVE", [vertex])
                committed += 1
        assert committed == crash_at
        snap = telemetry.registry.snapshot()
        # Attempted and durable diverge by exactly the in-flight batch.
        assert snap.counter("backend.commit_batches") == committed + 1
        assert snap.counter("backend.committed_vertices") == committed + 1
        assert snap.counter("backend.journal_records") == committed
        db.close()

        # Second life: reopen replays the journal — a read path, so a
        # fresh registry must stay at zero.
        fresh = Telemetry()
        db2 = MotionDatabase(
            backend=LoggedBackend(tmp_path), telemetry=fresh
        )
        recovered = len(db2.stream("PA/LIVE").series)
        assert recovered == committed  # the crash lost only its batch
        snap = fresh.registry.snapshot()
        assert snap.counter("backend.commit_batches") == 0
        assert snap.counter("backend.journal_records") == 0

        # Live feeding resumes: counters track exactly the new writes.
        rest = vertices[recovered:]
        for vertex in rest:
            db2.commit_vertices("PA/LIVE", [vertex])
        snap = fresh.registry.snapshot()
        assert snap.counter("backend.commit_batches") == len(rest)
        assert snap.counter("backend.committed_vertices") == len(rest)
        assert snap.counter("backend.journal_records") == len(rest)
        db2.close()

        # Third life: everything is durable, nothing was double-journaled.
        db3 = MotionDatabase(backend=LoggedBackend(tmp_path))
        assert len(db3.stream("PA/LIVE").series) == len(vertices)
        db3.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_divergence_bounded_at_every_append(self, seed, tmp_path):
        """Sweep the crash point: attempted − durable is always exactly
        the one in-flight batch, never more (no silent loss), never less
        (no double count)."""
        vertices = list(make_series(cycles=3))
        rng = np.random.default_rng(seed)
        crash_at = int(rng.integers(0, len(vertices)))
        injector = FaultInjector(FaultPlan.crash_at("log.append", crash_at))
        telemetry = Telemetry()
        db = MotionDatabase(
            backend=LoggedBackend(tmp_path / "db", injector=injector),
            telemetry=telemetry,
        )
        db.add_patient("PA")
        db.add_stream("PA", "LIVE")
        with pytest.raises(SimulatedCrash):
            for vertex in vertices:
                db.commit_vertices("PA/LIVE", [vertex])
        snap = telemetry.registry.snapshot()
        diverged = snap.counter("backend.commit_batches") - snap.counter(
            "backend.journal_records"
        )
        assert diverged == 1
        db.close()
        db2 = MotionDatabase(backend=LoggedBackend(tmp_path / "db"))
        assert len(db2.stream("PA/LIVE").series) == crash_at
        db2.close()


class TestSessionEvents:
    def test_query_and_prediction_events_flow(self, raw_stream):
        manager = SessionManager()
        session = manager.open_session(raw_stream.patient_id)
        refreshed = []
        servings = []
        manager.events.subscribe("query_refreshed", refreshed.append)
        manager.events.subscribe("prediction_served", servings.append)
        for i, t in enumerate(raw_stream.times):
            manager.tick(float(t), {session.stream_id: raw_stream.values[i]})
            manager.predict_ahead(session.stream_id, LATENCY)
        assert refreshed and all(
            e["stream_id"] == session.stream_id for e in refreshed
        )
        assert servings
        # The horizon is measured from the last committed vertex, so it
        # is at least the requested latency.
        assert all(e["horizon"] >= LATENCY - 1e-9 for e in servings)
        assert all(e["n_matches"] >= 1 for e in servings)
