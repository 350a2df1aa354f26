"""EXP-G1 — Section 6: the framework on heartbeat, robot arm and tides.

For each generalisation domain: segment two sessions, predict the live
stream's future at the domain's natural horizon from subsequence matches,
and compare against the last-value baseline (zero-order hold).  Expected
shape: subsequence matching beats the hold in every domain, since each
domain's motion is structured.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.framework import StructuredMotionAnalyzer
from repro.core.prediction import PlanStack
from repro.signals.domains import (
    heartbeat_signal,
    heartbeat_spec,
    robot_arm_signal,
    robot_arm_spec,
    tide_signal,
    tide_spec,
)

from conftest import report, run_once

DOMAINS = {
    "heartbeat": (
        heartbeat_spec,
        lambda seed: heartbeat_signal(duration=40.0, seed=seed),
        0.15,
    ),
    "robot arm": (
        robot_arm_spec,
        lambda seed: robot_arm_signal(duration=90.0, seed=seed),
        0.3,
    ),
    "tides": (
        tide_spec,
        lambda seed: tide_signal(duration_hours=240.0, seed=seed),
        1.0,
    ),
}


def _evaluate_domain(spec_factory, generate, horizon):
    spec = spec_factory()
    analyzer = StructuredMotionAnalyzer(spec)
    for k in range(2):
        t, x = generate(seed=10 + k)
        analyzer.ingest("unit-0", f"hist{k}", t, x)
    t, x = generate(seed=99)
    live_id = analyzer.ingest("unit-0", "live", t, x)
    series = analyzer.database.stream(live_id).series

    match_errors = []
    hold_errors = []
    # Walk the live PLR: at each interior vertex, query with the trailing
    # window of the prefix, predict `horizon` ahead, score against the
    # final PLR.  Same-stream candidates from the future of the walk point
    # are dropped (they would not exist online).
    for end in range(12, len(series) - 3):
        window = series.subsequence(max(0, end - 9), end)
        target_time = series.times[end - 1] + horizon
        if target_time > series.end_time:
            break
        actual = series.position_at(target_time)
        matches = [
            m
            for m in analyzer.matcher.find_matches(window, live_id)
            if m.stream_id != live_id or m.start + m.n_vertices <= end
        ]
        plan = analyzer.predictor.build_plan(window, matches)
        served, _, predicted = PlanStack([plan], [1]).serve(
            np.array([horizon])
        )
        if served[0]:
            match_errors.append(float(np.linalg.norm(predicted[0] - actual)))
        hold = series.positions[end - 1]
        hold_errors.append(float(np.linalg.norm(hold - actual)))
    return (
        float(np.mean(match_errors)) if match_errors else float("nan"),
        float(np.mean(hold_errors)),
        len(match_errors),
    )


def _run():
    out = {}
    for name, (spec_factory, generate, horizon) in DOMAINS.items():
        out[name] = _evaluate_domain(spec_factory, generate, horizon)
    return out


def test_sec6_generalization(benchmark):
    results = run_once(benchmark, _run)
    rows = [
        [name, match_err, hold_err, n]
        for name, (match_err, hold_err, n) in results.items()
    ]
    report(
        "sec6_generalization",
        format_table(
            ["domain", "matching error", "last-value error", "n predictions"],
            rows,
            title="Section 6 — framework prediction vs zero-order hold",
        ),
    )
    for name, (match_err, hold_err, n) in results.items():
        assert n >= 10, name
        assert match_err < hold_err, name
