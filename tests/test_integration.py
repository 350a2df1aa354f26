"""End-to-end integration tests across the full stack."""

import numpy as np
import pytest

from repro import (
    MotionDatabase,
    OnlinePredictor,
    RespiratorySimulator,
    SessionConfig,
    StreamIngestor,
    SubsequenceMatcher,
    generate_population,
    generate_query,
    segment_signal,
)
from repro.core.prediction import PlanStack
from repro.gating import GatingWindow, delayed_positions, simulate_gating


@pytest.fixture(scope="module")
def pipeline():
    """History DB + live replay for one patient."""
    profiles = generate_population(3, seed=20)
    db = MotionDatabase()
    for profile in profiles:
        db.add_patient(profile.patient_id, profile.attributes)
        sim = RespiratorySimulator(profile, SessionConfig(duration=90.0))
        for k, raw in enumerate(sim.generate_sessions(2, seed=8)):
            db.add_stream(
                profile.patient_id,
                f"S{k:02d}",
                series=segment_signal(raw.times, raw.values),
            )
    live_profile = profiles[0]
    live = RespiratorySimulator(
        live_profile, SessionConfig(duration=50.0)
    ).generate_session(9, seed=77)
    return db, live_profile, live


class TestOnlinePipeline:
    def test_full_online_prediction_accuracy(self, pipeline):
        db, profile, live = pipeline
        matcher = SubsequenceMatcher(db)
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        ingestor = StreamIngestor(db, profile.patient_id, "IT-LIVE")

        predictions = []
        for t, position in live.iter_points():
            if ingestor.add_point(t, position) and len(ingestor.series) > 10:
                query = generate_query(ingestor.series)
                if query is None:
                    continue
                p = predictor.predict(query, ingestor.stream_id, horizon=0.2)
                if p is not None:
                    predictions.append(p)
        ingestor.finish()
        series = ingestor.series

        assert len(predictions) > 10
        errors = [
            abs(p.primary - series.position_at(p.time)[0])
            for p in predictions
            if p.time <= series.end_time
        ]
        # Sub-millimetre mean accuracy on synthetic data.
        assert np.mean(errors) < 1.0
        db.remove_stream(ingestor.stream_id)

    def test_prediction_beats_latency_in_gating(self, pipeline):
        db, profile, live = pipeline
        matcher = SubsequenceMatcher(db)
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        ingestor = StreamIngestor(db, profile.patient_id, "IT-GATE")

        latency = 0.3
        controlled = np.empty(live.n_samples)
        stack = None
        for i, (t, position) in enumerate(live.iter_points()):
            if ingestor.add_point(t, position) and len(ingestor.series) > 10:
                query = generate_query(ingestor.series)
                stack = None
                if query is not None:
                    matches = matcher.find_matches(query, ingestor.stream_id)
                    plan = predictor.build_plan(query, matches)
                    stack = PlanStack([plan], [1])
            controlled[i] = position[0]
            if stack is not None:
                horizon = t + latency - ingestor.series.end_time
                served, _, positions = stack.serve(np.array([horizon]))
                if served[0]:
                    controlled[i] = positions[0][0]
        ingestor.finish()
        db.remove_stream(ingestor.stream_id)

        true_pos = live.primary
        window = GatingWindow.around_exhale(true_pos)
        delayed = delayed_positions(live.times, true_pos, latency)
        gated_delayed = simulate_gating(true_pos, delayed, window)
        gated_predicted = simulate_gating(true_pos, controlled, window)
        assert gated_predicted.precision > gated_delayed.precision

    def test_database_roundtrip_preserves_matching(self, pipeline, tmp_path):
        db, profile, live = pipeline
        path = tmp_path / "db.json"
        db.save(path)
        restored = MotionDatabase.load(path)

        series = restored.stream(restored.stream_ids[0]).series
        query = series.suffix(7)
        a = SubsequenceMatcher(db).find_matches(
            query, db.stream_ids[0], threshold=float("inf")
        )
        b = SubsequenceMatcher(restored).find_matches(
            query, restored.stream_ids[0], threshold=float("inf")
        )
        assert [(m.stream_id, m.start) for m in a] == [
            (m.stream_id, m.start) for m in b
        ]

    def test_three_dimensional_pipeline(self):
        profile = generate_population(1, seed=4)[0]
        db = MotionDatabase()
        db.add_patient(profile.patient_id, profile.attributes)
        sim = RespiratorySimulator(
            profile, SessionConfig(duration=60.0, ndim=3)
        )
        hist = sim.generate_session(0, seed=1)
        db.add_stream(
            profile.patient_id,
            "S00",
            series=segment_signal(hist.times, hist.values),
        )
        live = sim.generate_session(1, seed=2)
        ingestor = StreamIngestor(db, profile.patient_id, "LIVE")
        ingestor.extend(live.times, live.values)
        query = generate_query(ingestor.series)
        assert query is not None
        matcher = SubsequenceMatcher(db)
        predictor = OnlinePredictor(db, matcher, min_matches=1)
        prediction = predictor.predict(query, ingestor.stream_id, 0.2)
        assert prediction is not None
        assert prediction.position.shape == (3,)
