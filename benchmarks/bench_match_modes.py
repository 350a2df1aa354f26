"""Match-mode benchmark: rigid vs normalized vs warped retrieval cost.

Builds the ``bench_index_scaling``-style workload (synthetic cohort plus
one ingested live session and its dynamic query), then times warm
steady-state ``find_matches`` under each pluggable match mode:

* **rigid** — the historical exact-signature path (the baseline),
* **normalized** — same candidates, z-normalized amplitude kernel,
* **warped** — coarse-to-fine banded-DTW retrieval (band 1).

Every mode is gated before any timing is trusted: a matcher pinned to
``mode="rigid"`` must return byte-identical matches to a
default-parameter matcher (the mode layer must cost the rigid path
nothing semantically), and each mode's results must agree with its
frozen naive oracle (``reference_matches_for_mode``).  The
machine-readable payload goes to ``BENCH_modes.json`` at the repo root.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_match_modes.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.analysis.experiments import CohortConfig, build_cohort
from repro.core.matching import SubsequenceMatcher
from repro.core.query import generate_query
from repro.core.similarity import MatchMode, SimilarityParams
from repro.database.ingest import StreamIngestor
from repro.signals.respiratory import RespiratorySimulator, SessionConfig
from repro.testing.oracle import (
    check_equivalence,
    reference_matches_for_mode,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_modes.json"

FULL_COHORT = CohortConfig(
    n_patients=12,
    sessions_per_patient=4,
    session_duration=120.0,
    live_duration=60.0,
    seed=1,
)
QUICK_COHORT = CohortConfig(
    n_patients=5,
    sessions_per_patient=2,
    session_duration=60.0,
    live_duration=45.0,
    seed=1,
)

MODES = {
    "rigid": SimilarityParams(mode=MatchMode.RIGID),
    "normalized": SimilarityParams(mode=MatchMode.NORMALIZED),
    "warped_band1": SimilarityParams(mode=MatchMode.WARPED, warp_band=1),
}


def best_of(repeats: int, func):
    """Minimum wall-clock of ``repeats`` runs (returns seconds, result)."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def build_workload(config: CohortConfig):
    """Cohort database + one ingested live stream + its dynamic query."""
    cohort = build_cohort(config)
    profile = cohort.profiles[0]
    raw = RespiratorySimulator(
        profile, SessionConfig(duration=45.0)
    ).generate_session(3, seed=31)
    ingestor = StreamIngestor(cohort.db, profile.patient_id, "BENCH")
    ingestor.extend(raw.times, raw.values)
    ingestor.finish()
    query = generate_query(ingestor.series)
    if query is None:
        raise RuntimeError("workload produced no stable query")
    return cohort.db, query, ingestor.stream_id


def run(quick: bool) -> dict:
    config = QUICK_COHORT if quick else FULL_COHORT
    repeats = 1 if quick else 3
    db, query, live_id = build_workload(config)

    # -- gates: the mode layer must not move the rigid baseline, and every
    # -- mode must agree with its frozen oracle ----------------------------
    default_matches = SubsequenceMatcher(db).find_matches(query, live_id)
    rigid_matches = SubsequenceMatcher(db, MODES["rigid"]).find_matches(
        query, live_id
    )
    assert rigid_matches == default_matches, (
        "mode='rigid' diverged from the default retrieval path"
    )
    for params in MODES.values():
        check_equivalence(
            SubsequenceMatcher(db, params).find_matches(query, live_id),
            reference_matches_for_mode(db, query, live_id, params=params),
        )

    # -- warm steady-state retrieval per mode --------------------------------
    timings_ms: dict[str, float] = {}
    n_matches: dict[str, int] = {}
    for name, params in MODES.items():
        matcher = SubsequenceMatcher(db, params)
        matcher.find_matches(query, live_id)  # build the index once
        loops = max(repeats * 20, 20)
        if name == "warped_band1":
            loops = max(repeats * 5, 5)  # the DP kernel dominates
        elapsed, matches = best_of(
            loops, lambda m=matcher: m.find_matches(query, live_id)
        )
        timings_ms[name] = elapsed * 1e3
        n_matches[name] = len(matches)

    return {
        "benchmark": "bench_match_modes",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "workload": {
            "n_patients": config.n_patients,
            "sessions_per_patient": config.sessions_per_patient,
            "session_duration_s": config.session_duration,
            "n_streams": db.n_streams,
            "n_vertices": db.n_vertices,
            "query_n_vertices": query.n_vertices,
        },
        "timings_ms": timings_ms,
        "relative_cost": {
            "normalized_vs_rigid": timings_ms["normalized"]
            / timings_ms["rigid"],
            "warped_vs_rigid": timings_ms["warped_band1"]
            / timings_ms["rigid"],
        },
        "n_matches": n_matches,
        "rigid_identical_to_default": True,
        "rigid_matches_oracle": True,
        "normalized_matches_oracle": True,
        "warped_matches_oracle": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small cohort, single repeat (CI smoke run)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT,
        help=f"where to write the JSON payload (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)

    payload = run(args.quick)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    timings = payload["timings_ms"]
    print(
        f"workload: {payload['workload']['n_vertices']} vertices, "
        f"query {payload['workload']['query_n_vertices']} vertices"
    )
    for name in MODES:
        print(
            f"  {name:<14} {timings[name]:8.2f} ms/query  "
            f"({payload['n_matches'][name]} matches)"
        )
    ratios = payload["relative_cost"]
    print(
        f"  normalized {ratios['normalized_vs_rigid']:.2f}x rigid, "
        f"warped {ratios['warped_vs_rigid']:.2f}x rigid"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
