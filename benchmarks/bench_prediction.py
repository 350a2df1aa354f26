"""Prediction-serving benchmark: the scalar oracle vs the one kernel.

Isolates the prediction path (Section 4.3 serving) from the rest of the
pipeline and times three ways of answering "where will the patient be
``h`` seconds from now":

* **scalar** — :func:`repro.testing.oracle.reference_prediction`, the
  frozen one-match-at-a-time Python loop (the byte-identity oracle),
* **plan_serve** — a one-row :class:`~repro.core.prediction.PlanStack`
  over one session's plan, served once per horizon: what a solo
  session's ``predict_at`` and ``OnlinePredictor.predict`` run,
* **fleet** — :meth:`~repro.service.manager.SessionManager.predict_ahead_all`,
  every tenant's plan one row of a stack served once per tick,
  compared against per-tenant ``predict_ahead`` calls (one-row stacks)
  on the same sessions.

Every served result is asserted **byte-identical** (``np.array_equal``)
to the scalar oracle before any timing is reported — a speedup that
changes the answer would not be a speedup.  The fleet leg checks every
row against the oracle as well as against the per-tenant serve, outside
the timed region.

Writes ``BENCH_prediction.json`` at the repo root (full mode), with the
host the timings were taken on.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_prediction.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from bench_index_scaling import host_record
from repro.analysis.experiments import CohortConfig, build_cohort
from repro.core.online import OnlineAnalysisSession, OnlineSessionConfig
from repro.core.prediction import PlanStack
from repro.service.manager import SessionManager
from repro.signals.respiratory import RespiratorySimulator, SessionConfig
from repro.testing.oracle import reference_prediction

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_prediction.json"

COHORT = CohortConfig(
    n_patients=6,
    sessions_per_patient=3,
    session_duration=120.0,
    live_duration=60.0,
    seed=3,
)
QUICK_COHORT = CohortConfig(
    n_patients=3,
    sessions_per_patient=2,
    session_duration=60.0,
    live_duration=30.0,
    seed=3,
)

LATENCY = 0.2  # fleet look-ahead per tick (matches bench_service)


def live_session(db, profile, duration: float):
    """Feed one simulated live session until it has matches to serve."""
    raw = RespiratorySimulator(
        profile, SessionConfig(duration=duration)
    ).generate_session(9, seed=99)
    session = OnlineAnalysisSession(
        db, profile.patient_id, "BENCH-PRED", config=OnlineSessionConfig()
    )
    for i, t in enumerate(raw.times):
        session.observe(float(t), raw.values[i])
    return session


def single_plan_section(db, session, horizons, reps: int) -> dict:
    """Scalar oracle vs one-row stack serves on one session's matches."""
    query = session.query
    matches = session.matches
    params = session.config.similarity
    predictor = session.predictor

    plan = predictor.build_plan(query, matches, params=params)
    stack = PlanStack([plan], [1])
    rows = [np.array([h]) for h in horizons]

    # -- byte-identity gate -------------------------------------------------
    for h, row in zip(horizons, rows):
        expected = reference_prediction(db, query, matches, h, params=params)
        served, _, positions = stack.serve(row)
        if expected is None:
            assert not served[0], "one-row serve answered an oracle decline"
            continue
        assert served[0] and np.array_equal(expected, positions[0]), (
            "one-row serve diverged from the scalar oracle"
        )

    # -- timings ------------------------------------------------------------
    t0 = time.perf_counter()
    for _ in range(reps):
        for h in horizons:
            reference_prediction(db, query, matches, h, params=params)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        for row in rows:
            stack.serve(row)
    serve_s = time.perf_counter() - t0

    # Build costs are paid once per match refresh, not per serve —
    # report them separately so the amortisation argument is checkable.
    t0 = time.perf_counter()
    for _ in range(reps):
        predictor.build_plan(query, matches, params=params)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        PlanStack([plan], [1])
    stack_s = time.perf_counter() - t0

    n_serves = reps * len(horizons)
    return {
        "n_matches": len(matches),
        "n_horizons": len(horizons),
        "reps": reps,
        "scalar_serves_per_s": n_serves / scalar_s,
        "plan_serves_per_s": n_serves / serve_s,
        "plan_builds_per_s": reps / build_s,
        "stack_builds_per_s": reps / stack_s,
        "speedup_plan_vs_scalar": scalar_s / serve_s,
        "identical_predictions": True,  # asserted above
    }


def fleet_section(db, profiles, duration: float, n_ticks: int) -> dict:
    """Batched fleet dispatch vs per-tenant serves on live sessions."""
    manager = SessionManager(db)
    raws = {}
    for k, profile in enumerate(profiles):
        session = manager.open_session(
            profile.patient_id, "BENCH-FLEET", config=OnlineSessionConfig()
        )
        raws[session.stream_id] = RespiratorySimulator(
            profile, SessionConfig(duration=duration)
        ).generate_session(9, seed=150 + k)

    times = next(iter(raws.values())).times
    warmup = len(times) - n_ticks
    solo_s = 0.0
    fleet_s = 0.0
    served_frames = 0
    n_served = 0
    for i, t in enumerate(times):
        manager.tick(
            float(t), {sid: raw.values[i] for sid, raw in raws.items()}
        )
        if i < warmup:
            continue
        t0 = time.perf_counter()
        solo = {
            sid: manager.session(sid).predict_ahead(LATENCY) for sid in raws
        }
        t1 = time.perf_counter()
        batched = manager.predict_ahead_all(LATENCY)
        t2 = time.perf_counter()
        solo_s += t1 - t0
        fleet_s += t2 - t1
        served_frames += len(raws)
        for sid in raws:
            a, b = solo[sid], batched[sid]
            expected = oracle_at(manager.session(sid), float(t) + LATENCY)
            assert (a is None) == (b is None) == (expected is None), (
                f"{sid}: serve and decline disagree at tick {i}"
            )
            if b is not None:
                n_served += 1
                assert np.array_equal(a, b), (
                    "fleet dispatch diverged from per-tenant serves"
                )
                assert np.array_equal(b, expected), (
                    "fleet dispatch diverged from the scalar oracle"
                )
    manager.close(keep_streams=False)
    return {
        "n_tenants": len(raws),
        "n_ticks_timed": n_ticks,
        "n_served_rows_checked": n_served,
        "solo_frames_per_s": served_frames / solo_s,
        "fleet_frames_per_s": served_frames / fleet_s,
        "speedup_fleet_vs_solo": solo_s / fleet_s,
        "identical_predictions": True,  # asserted above
    }


def oracle_at(session, target: float):
    """``reference_prediction`` over ``session``'s matches at ``target``.

    ``target`` is the latest sample's time plus the latency, so it lies
    past the session's last vertex.
    """
    if session.query is None or not session.matches:
        return None
    return reference_prediction(
        session.db,
        session.query,
        session.matches,
        target - session.ingestor.series.end_time,
        params=session.config.similarity,
        min_matches=session.config.min_matches,
        anchor=session.predictor.anchor,
    )


def run(quick: bool) -> dict:
    cohort_config = QUICK_COHORT if quick else COHORT
    cohort = build_cohort(cohort_config)
    db = cohort.db

    duration = 30.0 if quick else 45.0
    session = live_session(db, cohort.profiles[0], duration)
    assert session.matches, "workload produced no matches to serve"

    horizons = np.linspace(0.05, 2.0, 8 if quick else 40)
    reps = 5 if quick else 50
    single = single_plan_section(db, session, horizons, reps)
    session.finish(keep_stream=False)

    fleet = fleet_section(
        db,
        cohort.profiles[1 : (3 if quick else 5)],
        duration=20.0 if quick else 30.0,
        n_ticks=100 if quick else 400,
    )

    return {
        "benchmark": "bench_prediction",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "host": host_record(),
        "single_plan": single,
        "fleet": fleet,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload (CI smoke); full mode feeds the README table",
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)

    single = payload["single_plan"]
    fleet = payload["fleet"]
    print(
        f"single plan ({single['n_matches']} matches): "
        f"scalar {single['scalar_serves_per_s']:.0f}/s, "
        f"one-row stack {single['plan_serves_per_s']:.0f}/s "
        f"({single['speedup_plan_vs_scalar']:.1f}x); builds: "
        f"plan {single['plan_builds_per_s']:.0f}/s, "
        f"stack {single['stack_builds_per_s']:.0f}/s"
    )
    print(
        f"fleet ({fleet['n_tenants']} tenants): "
        f"per-tenant {fleet['solo_frames_per_s']:.0f} f/s, "
        f"batched {fleet['fleet_frames_per_s']:.0f} f/s "
        f"({fleet['speedup_fleet_vs_solo']:.2f}x), identical to the "
        f"oracle on {fleet['n_served_rows_checked']} served rows"
    )
    if payload["mode"] == "full":
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
