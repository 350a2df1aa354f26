"""Integration tests for the replay harness, cohort builder and tuner."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    CohortConfig,
    build_cohort,
    calibrate_threshold,
    evaluate_cohort,
    pooled_match_distances,
)
from repro.analysis.replay import (
    ReplayConfig,
    ReplayResult,
    replay_session,
    replay_session_baseline,
)
from repro.baselines.predictors import LastValuePredictor
from repro.core.similarity import SimilarityParams
from repro.core.tuning import tune_similarity_params


class TestCohort:
    def test_structure(self, small_cohort):
        assert small_cohort.db.n_patients == 4
        assert small_cohort.db.n_streams == 8
        assert set(small_cohort.live_streams) == set(
            small_cohort.patient_ids
        )

    def test_profile_lookup(self, small_cohort):
        pid = small_cohort.patient_ids[0]
        assert small_cohort.profile(pid).patient_id == pid
        with pytest.raises(KeyError):
            small_cohort.profile("nope")

    def test_reproducible(self):
        config = CohortConfig(
            n_patients=2, sessions_per_patient=1,
            session_duration=30.0, live_duration=20.0, seed=9,
        )
        a = build_cohort(config)
        b = build_cohort(config)
        assert a.db.n_vertices == b.db.n_vertices


class TestReplaySession:
    def test_basic_run(self, small_cohort):
        pid = small_cohort.patient_ids[0]
        result = replay_session(
            small_cohort.db, small_cohort.live_streams[pid]
        )
        assert result.n_opportunities > 0
        assert 0.0 <= result.coverage <= 1.0
        errors = result.errors()
        assert errors and all(np.isfinite(e) for e in errors)
        # Temporary live stream removed afterwards.
        assert result.stream_id not in small_cohort.db

    def test_keep_stream(self, small_cohort):
        pid = small_cohort.patient_ids[1]
        result = replay_session(
            small_cohort.db,
            small_cohort.live_streams[pid],
            session_id="KEPT",
            keep_stream=True,
        )
        assert result.stream_id in small_cohort.db
        small_cohort.db.remove_stream(result.stream_id)

    def test_per_horizon_errors(self, small_cohort):
        pid = small_cohort.patient_ids[0]
        config = ReplayConfig(horizons=(0.1, 0.3))
        result = replay_session(
            small_cohort.db, small_cohort.live_streams[pid], config
        )
        assert set(result.errors_by_horizon) == {0.1, 0.3}
        assert result.summary(0.1).n > 0

    @pytest.mark.parametrize(
        "horizons",
        [(0.1, -0.3), (-1e-9,), (float("nan"),), (0.2, float("inf")), ()],
    )
    def test_config_rejects_unservable_horizons(self, horizons):
        """Prediction plans pack only each match's future: a negative,
        non-finite or missing horizon is refused where it enters."""
        with pytest.raises(ValueError, match="horizons"):
            ReplayConfig(horizons=horizons)

    def test_fixed_query_mode(self, small_cohort):
        pid = small_cohort.patient_ids[0]
        result = replay_session(
            small_cohort.db,
            small_cohort.live_streams[pid],
            ReplayConfig(fixed_cycles=2),
        )
        assert set(result.query_lengths) == {7}

    def test_merge(self, small_cohort):
        results = [
            replay_session(small_cohort.db, small_cohort.live_streams[pid])
            for pid in small_cohort.patient_ids[:2]
        ]
        merged = ReplayResult.merge(results)
        assert merged.n_predictions == sum(r.n_predictions for r in results)
        assert len(merged.errors()) == sum(len(r.errors()) for r in results)


class TestEvaluateCohort:
    def test_subset_and_restriction(self, small_cohort):
        ids = small_cohort.patient_ids[:2]
        restrict = {pid: (pid,) for pid in ids}
        result = evaluate_cohort(
            small_cohort, patient_ids=ids, restrict_map=restrict
        )
        assert result.n_opportunities > 0


class TestBaselineReplay:
    def test_last_value(self, small_cohort):
        pid = small_cohort.patient_ids[0]
        result = replay_session_baseline(
            small_cohort.live_streams[pid], LastValuePredictor()
        )
        assert result.coverage == pytest.approx(1.0)
        assert result.summary().mean > 0.0


class TestCalibration:
    def test_pooled_distances_nonempty(self, small_cohort):
        distances = pooled_match_distances(
            small_cohort, SimilarityParams(), n_queries=30
        )
        assert len(distances) > 50
        assert np.all(distances >= 0)

    def test_calibrated_threshold_matches_quantile(self, small_cohort):
        threshold = calibrate_threshold(
            small_cohort, SimilarityParams(), 0.25, n_queries=30
        )
        distances = pooled_match_distances(
            small_cohort, SimilarityParams(), n_queries=30
        )
        fraction = float((distances <= threshold).mean())
        assert fraction == pytest.approx(0.25, abs=0.05)

    def test_invalid_acceptance(self, small_cohort):
        with pytest.raises(ValueError):
            calibrate_threshold(small_cohort, SimilarityParams(), 0.0)


class TestTuning:
    def test_coordinate_descent_improves_or_keeps(self, small_cohort):
        result = tune_similarity_params(
            small_cohort,
            {"frequency_weight": (0.25, 1.0)},
            patient_ids=small_cohort.patient_ids[:1],
        )
        assert result.score <= min(t.score for t in result.trials) + 1e-12
        assert result.best_value("frequency_weight") in (0.25, 1.0)
        assert len(result.trials) == 2

    def test_unknown_parameter_rejected(self, small_cohort):
        with pytest.raises(ValueError):
            tune_similarity_params(small_cohort, {"bogus": (1,)})
