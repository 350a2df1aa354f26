"""Prediction-serving benchmark: the scalar oracle vs the one kernel.

Isolates the prediction path (Section 4.3 serving) from the rest of the
pipeline and times five ways of answering "where will the patient be
``h`` seconds from now":

* **scalar** — :func:`repro.testing.oracle.reference_prediction`, the
  frozen one-match-at-a-time Python loop (the byte-identity oracle),
* **plan_serve** — a one-row :class:`~repro.core.prediction.PlanStack`
  over one session's plan, served once per horizon: what a solo
  session's ``predict_at`` runs (``OnlinePredictor.predict`` builds a
  one-shot stack; its build rate is reported too),
* **fleet** — :meth:`~repro.service.manager.SessionManager.predict_ahead_all`,
  every tenant's plan one row of the manager's live stack served once
  per tick, compared against per-tenant ``predict_ahead`` calls
  (one-row stacks) on the same sessions,
* **steady** — one live stack over the fleet's plans served over
  consecutive frames, each match's cursor advancing in place, against a
  stack built afresh for every frame,
* **refresh** — one row rewritten with a new plan object (what a query
  refresh hands the stack), then served, against a full rebuild.

The fleet, steady and refresh legs time every tick separately and
report the median (and the quartiles) over ``WINDOWS`` consecutive
windows of ticks, so one slow stretch of a shared host does not set
the figure.  Every served result is asserted **byte-identical**
(``np.array_equal``) to the scalar oracle before any timing is reported
— a speedup that changes the answer would not be a speedup — and every
timed serve of the fleet, steady and refresh legs is checked, outside
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
FRAME = 1.0 / 30.0  # one imaging frame: the steady horizons' step
#: Frames between two vertex commits (about one a second at 30 Hz): the
#: steady and refresh legs' horizons grow this long, then fall back.
COMMIT_FRAMES = 30
#: Consecutive windows each timed leg is split into; legs report the
#: median window (and the quartiles).
WINDOWS = 8


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


def window_rates(durations: list[float], per_tick: float) -> dict:
    """Median and quartiles of ``per_tick / mean duration`` over windows.

    The ticks are split into ``WINDOWS`` consecutive windows; each
    window's rate is its operations over its summed time.
    """
    rates = [
        per_tick * len(window) / float(np.sum(window))
        for window in np.array_split(np.asarray(durations), WINDOWS)
    ]
    q1, median, q3 = np.percentile(rates, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def window_times_us(durations: list[float]) -> dict:
    """Median and quartiles, over windows, of the mean time per op (us)."""
    means = [
        1e6 * float(np.mean(window))
        for window in np.array_split(np.asarray(durations), WINDOWS)
    ]
    q1, median, q3 = np.percentile(means, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def fleet_section(manager, raws, n_ticks: int) -> dict:
    """Batched fleet dispatch vs per-tenant serves on live sessions."""
    times = next(iter(raws.values())).times
    warmup = len(times) - n_ticks
    solo_s: list[float] = []
    fleet_s: list[float] = []
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
        solo_s.append(t1 - t0)
        fleet_s.append(t2 - t1)
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
    solo = window_rates(solo_s, len(raws))
    fleet = window_rates(fleet_s, len(raws))
    return {
        "n_tenants": len(raws),
        "n_ticks_timed": n_ticks,
        "n_windows": WINDOWS,
        "n_served_rows_checked": n_served,
        "solo_frames_per_s": solo["median"],
        "solo_frames_per_s_quartiles": [solo["q1"], solo["q3"]],
        "fleet_frames_per_s": fleet["median"],
        "fleet_frames_per_s_quartiles": [fleet["q1"], fleet["q3"]],
        "speedup_fleet_vs_solo": fleet["median"] / solo["median"],
        "identical_predictions": True,  # asserted above
    }


def check_rows(sessions, horizons, result) -> int:
    """Assert each served row equals the oracle; returns rows served."""
    served, _, positions = result
    n_served = 0
    for k, session in enumerate(sessions):
        expected = oracle_ahead(session, float(horizons[k]))
        assert bool(served[k]) == (expected is not None), (
            "serve and decline disagree with the oracle"
        )
        if expected is not None:
            n_served += 1
            assert np.array_equal(positions[k], expected), (
                "stack serve diverged from the scalar oracle"
            )
    return n_served


def live_rows(manager, now: float):
    """The warm sessions, their plans, ``min_matches`` and the horizons
    of a prediction ``LATENCY`` past ``now``."""
    sessions = [
        session
        for session in manager.sessions()
        if session.prediction_plan() is not None
    ]
    assert sessions, "no session has a plan to serve"
    plans = [session.prediction_plan() for session in sessions]
    mins = [session.config.min_matches for session in sessions]
    horizons = np.array(
        [
            now + LATENCY - session.ingestor.series.end_time
            for session in sessions
        ]
    )
    return sessions, plans, mins, horizons


def steady_section(manager, now: float, n_frames: int) -> dict:
    """One live stack served over consecutive frames vs a fresh stack each.

    The horizons grow by one frame per serve for ``COMMIT_FRAMES``
    frames, as between two vertex commits of a live fleet, so each
    match's cursor advances in place; then they fall back, and the rows
    restart.
    """
    sessions, plans, mins, horizons = live_rows(manager, now)
    frames = [
        horizons + (k % COMMIT_FRAMES) * FRAME for k in range(n_frames)
    ]
    stack = PlanStack(plans, mins)
    stack.serve(frames[0])
    live_s, fresh_s, results = [], [], []
    for h in frames:
        t0 = time.perf_counter()
        result = stack.serve(h)
        t1 = time.perf_counter()
        PlanStack(plans, mins).serve(h)
        t2 = time.perf_counter()
        live_s.append(t1 - t0)
        fresh_s.append(t2 - t1)
        results.append(result)
    n_served = sum(
        check_rows(sessions, h, result) for h, result in zip(frames, results)
    )
    live = window_times_us(live_s)
    fresh = window_times_us(fresh_s)
    return {
        "n_rows": len(plans),
        "n_matches": sum(plan.n_matches for plan in plans),
        "n_frames": n_frames,
        "n_served_rows_checked": n_served,
        "live_serve_us": live["median"],
        "live_serve_us_quartiles": [live["q1"], live["q3"]],
        "fresh_build_serve_us": fresh["median"],
        "fresh_build_serve_us_quartiles": [fresh["q1"], fresh["q3"]],
        "speedup_live_vs_fresh": fresh["median"] / live["median"],
        "identical_predictions": True,  # asserted by check_rows
    }


def refresh_section(manager, now: float, n_frames: int) -> dict:
    """One row rewritten with a new plan, then served, vs a full rebuild.

    Row 0 alternates between two plan objects over the same matches (a
    query refresh hands the stack a new object), so every frame restacks
    exactly one row.
    """
    sessions, plans, mins, horizons = live_rows(manager, now)
    first = sessions[0]
    twins = [
        plans[0],
        first.predictor.build_plan(
            first.query, first.matches, params=first.config.similarity
        ),
    ]
    stack = PlanStack(plans, mins)
    stack.serve(horizons)
    live_s, fresh_s, results = [], [], []
    frames = [
        horizons + (k % COMMIT_FRAMES) * FRAME for k in range(n_frames)
    ]
    for k, h in enumerate(frames):
        rows = [twins[(k + 1) % 2], *plans[1:]]
        t0 = time.perf_counter()
        stack.restack(rows, mins)
        result = stack.serve(h)
        t1 = time.perf_counter()
        PlanStack(rows, mins).serve(h)
        t2 = time.perf_counter()
        live_s.append(t1 - t0)
        fresh_s.append(t2 - t1)
        results.append(result)
    n_served = sum(
        check_rows(sessions, h, result) for h, result in zip(frames, results)
    )
    live = window_times_us(live_s)
    fresh = window_times_us(fresh_s)
    return {
        "n_rows": len(plans),
        "rewritten_row_matches": plans[0].n_matches,
        "n_frames": n_frames,
        "n_served_rows_checked": n_served,
        "rewrite_serve_us": live["median"],
        "rewrite_serve_us_quartiles": [live["q1"], live["q3"]],
        "rebuild_serve_us": fresh["median"],
        "rebuild_serve_us_quartiles": [fresh["q1"], fresh["q3"]],
        "speedup_rewrite_vs_rebuild": fresh["median"] / live["median"],
        "identical_predictions": True,  # asserted by check_rows
    }


def oracle_at(session, target: float):
    """``reference_prediction`` over ``session``'s matches at ``target``.

    ``target`` is the latest sample's time plus the latency, so it lies
    past the session's last vertex.
    """
    return oracle_ahead(session, target - session.ingestor.series.end_time)


def oracle_ahead(session, horizon: float):
    """``reference_prediction`` over ``session``'s matches, ``horizon``
    past its last vertex."""
    if session.query is None or not session.matches:
        return None
    return reference_prediction(
        session.db,
        session.query,
        session.matches,
        horizon,
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

    manager = SessionManager(db)
    raws = {}
    profiles = cohort.profiles[1 : (3 if quick else 5)]
    for k, profile in enumerate(profiles):
        tenant = manager.open_session(
            profile.patient_id, "BENCH-FLEET", config=OnlineSessionConfig()
        )
        raws[tenant.stream_id] = RespiratorySimulator(
            profile, SessionConfig(duration=20.0 if quick else 30.0)
        ).generate_session(9, seed=150 + k)
    fleet = fleet_section(manager, raws, n_ticks=100 if quick else 400)
    now = float(next(iter(raws.values())).times[-1])
    steady = steady_section(manager, now, n_frames=40 if quick else 400)
    refresh = refresh_section(manager, now, n_frames=40 if quick else 400)
    manager.close(keep_streams=False)

    return {
        "benchmark": "bench_prediction",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "host": host_record(),
        "single_plan": single,
        "fleet": fleet,
        "steady": steady,
        "refresh": refresh,
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
        f"fleet ({fleet['n_tenants']} tenants, median of {WINDOWS} "
        f"windows): per-tenant {fleet['solo_frames_per_s']:.0f} f/s, "
        f"batched {fleet['fleet_frames_per_s']:.0f} f/s "
        f"({fleet['speedup_fleet_vs_solo']:.2f}x), identical to the "
        f"oracle on {fleet['n_served_rows_checked']} served rows"
    )
    steady = payload["steady"]
    refresh = payload["refresh"]
    print(
        f"steady ({steady['n_rows']} rows, {steady['n_matches']} matches): "
        f"live stack {steady['live_serve_us']:.1f} us/serve, fresh stack "
        f"{steady['fresh_build_serve_us']:.1f} us "
        f"({steady['speedup_live_vs_fresh']:.2f}x); refresh: one row "
        f"rewritten {refresh['rewrite_serve_us']:.1f} us, rebuilt "
        f"{refresh['rebuild_serve_us']:.1f} us "
        f"({refresh['speedup_rewrite_vs_rebuild']:.2f}x); identical to "
        f"the oracle on "
        f"{steady['n_served_rows_checked'] + refresh['n_served_rows_checked']}"
        f" served rows"
    )
    if payload["mode"] == "full":
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
