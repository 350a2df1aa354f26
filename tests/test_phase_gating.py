"""Tests for state prediction and phase-based gating."""

import numpy as np
import pytest

from repro.core.matching import SubsequenceMatcher
from repro.core.model import PLRSeries, Vertex
from repro.core.prediction import OnlinePredictor
from repro.database.store import MotionDatabase
from repro.gating.phase import simulate_phase_gating, states_at

from conftest import EOE, EX, IN


def periodic_series(cycles, amplitude=10.0, period=3.0):
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
def setup():
    db = MotionDatabase()
    db.add_patient("PA")
    db.add_stream("PA", "HIST", series=periodic_series(8))
    live = periodic_series(3)
    db.add_stream("PA", "LIVE", series=live)
    matcher = SubsequenceMatcher(db)
    predictor = OnlinePredictor(db, matcher, min_matches=1)
    return db, predictor, live


class TestPredictState:
    def test_predicts_next_state_exactly(self, setup):
        db, predictor, live = setup
        query = live.suffix(7)
        # Query ends at an IN vertex: 0.5 s later the stream is mid-inhale.
        result = predictor.predict_state(query, "PA/LIVE", horizon=0.5)
        assert result is not None
        state, confidence = result
        assert state is IN
        assert confidence == pytest.approx(1.0)

    def test_predicts_across_transition(self, setup):
        db, predictor, live = setup
        query = live.suffix(7)
        # 1.5 s later the inhale (1 s) has ended: the stream is exhaling.
        state, confidence = predictor.predict_state(
            query, "PA/LIVE", horizon=1.5
        )
        assert state is EX
        assert confidence > 0.9

    @pytest.mark.parametrize(
        "horizon", [-0.5, -1e-12, -np.inf, np.inf, np.nan]
    )
    def test_rejects_negative_or_non_finite_horizon(self, setup, horizon):
        """A vote needs each match's future: a horizon below 0 would read
        a segment before the match's end, and -inf the stream's first
        one, so it is refused with the error predict() raises."""
        db, predictor, live = setup
        assert predictor.predict_state(live.suffix(7), "PA/LIVE", 0.0)
        with pytest.raises(ValueError, match="horizon"):
            predictor.predict_state(live.suffix(7), "PA/LIVE", horizon)

    def test_none_without_matches(self, setup):
        db, _, live = setup
        strict = OnlinePredictor(
            db, SubsequenceMatcher(db), min_matches=10_000
        )
        assert strict.predict_state(live.suffix(7), "PA/LIVE", 0.2) is None


class TestStatesAt:
    def test_reads_segment_states(self):
        series = periodic_series(2)
        states = states_at(series, [0.5, 1.5, 2.5])
        assert states == [IN, EX, EOE]


class TestSimulatePhaseGating:
    def test_perfect_decisions(self):
        truth = [IN, EX, EOE, EOE, IN, EX, EOE]
        decisions = [s is EOE for s in truth]
        report = simulate_phase_gating(truth, decisions)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.duty_cycle == pytest.approx(3 / 7)

    def test_shifted_decisions_lose_precision(self):
        truth = [IN, EX, EOE, EOE, IN, EX, EOE, EOE]
        decisions = [False] + [truth[i - 1] is EOE for i in range(1, 8)]
        report = simulate_phase_gating(truth, decisions)
        assert report.precision < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_phase_gating([IN], [True, False])
        with pytest.raises(ValueError):
            simulate_phase_gating([], [])

    def test_end_to_end_phase_gate(self, setup):
        """Predicted states drive the gate on a live stream."""
        db, predictor, _ = setup
        live = periodic_series(6)
        db.add_stream("PA", "LIVE6", series=live)
        latency = 0.3
        frame_times = np.arange(live.start_time + 8.0, live.end_time - 1.0, 0.1)
        decisions = []
        for t in frame_times:
            end = int(np.searchsorted(live.times, t, side="right"))
            query = live.subsequence(max(0, end - 7), end) if end >= 7 else None
            if query is None:
                decisions.append(False)
                continue
            horizon = (t + latency) - query.last_vertex.time
            result = predictor.predict_state(query, "PA/LIVE6", horizon)
            decisions.append(result is not None and result[0] is EOE)
        truth = states_at(live, frame_times + latency)
        report = simulate_phase_gating(truth, decisions)
        assert report.recall > 0.6
        assert report.precision > 0.6