"""Index-scaling benchmark: columnar engine vs the pre-PR loop engine.

Builds the ``bench_ablations``-style workload (synthetic cohort plus one
ingested live session and its dynamic query), then times

* **index build** — a fresh ``StateSignatureIndex`` materialising the
  query length (the first ``candidates()`` call),
* **cold query** — a fresh ``SubsequenceMatcher`` answering its first
  ``find_matches`` (build + retrieval + ranking),
* **warm query** — steady-state retrieval on an already-built index,
* **linear scan** — the paper-baseline access path,

for both the current columnar engine and the frozen pre-PR implementation
(``_legacy_index.py``), asserts the two return identical matches
(same streams, starts and distances), and writes the machine-readable
trajectory to ``BENCH_index.json`` at the repo root.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_index_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _legacy_index import LegacyStateSignatureIndex, legacy_scan

from repro.analysis.experiments import CohortConfig, build_cohort
from repro.core.matching import SubsequenceMatcher
from repro.core.query import generate_query
from repro.database.index import CandidateSet, StateSignatureIndex
from repro.database.ingest import StreamIngestor
from repro.signals.respiratory import RespiratorySimulator, SessionConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_index.json"

FULL_COHORT = CohortConfig(
    n_patients=16,
    sessions_per_patient=5,
    session_duration=180.0,
    live_duration=60.0,
    seed=1,
)
QUICK_COHORT = CohortConfig(
    n_patients=6,
    sessions_per_patient=2,
    session_duration=60.0,
    live_duration=45.0,
    seed=1,
)


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


def match_keys(matches):
    return [(m.stream_id, m.start, m.distance) for m in matches]


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


class _InternedLegacyIndex(LegacyStateSignatureIndex):
    """The frozen index, its candidate sets interned on the way out.

    Every candidate set the matcher ranks carries stream codes; the
    frozen engine predates them, so the matcher-level timings below pay
    one ``np.unique`` per lookup for them (the standalone index-build
    timing uses the frozen class as it is).
    """

    def candidates(self, signature):
        found = super().candidates(signature)
        if found is None:
            return None
        names, codes = np.unique(found.stream_ids, return_inverse=True)
        return CandidateSet(
            codes=codes,
            names=names,
            starts=found.starts,
            amplitudes=found.amplitudes,
            durations=found.durations,
        )


def legacy_matcher(db) -> SubsequenceMatcher:
    """A matcher whose candidate generation is the frozen pre-PR index."""
    matcher = SubsequenceMatcher(db, use_index=True)
    matcher._index = _InternedLegacyIndex(db)
    return matcher


def host_record() -> dict:
    """The host the timings were taken on."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
    }


def run(quick: bool) -> dict:
    config = QUICK_COHORT if quick else FULL_COHORT
    repeats = 1 if quick else 3
    db, query, live_id = build_workload(config)
    signature = query.state_signature

    # -- index build (fresh index, first candidates() call) -----------------
    t_build_new, cand_new = best_of(
        repeats, lambda: StateSignatureIndex(db).candidates(signature)
    )
    t_build_old, cand_old = best_of(
        repeats, lambda: LegacyStateSignatureIndex(db).candidates(signature)
    )
    assert cand_new is not None and cand_old is not None
    assert cand_new.n_candidates == cand_old.n_candidates

    # -- cold query (fresh matcher, first find_matches) ----------------------
    t_cold_new, m_new = best_of(
        repeats,
        lambda: SubsequenceMatcher(db).find_matches(query, live_id),
    )
    t_cold_old, m_old = best_of(
        repeats, lambda: legacy_matcher(db).find_matches(query, live_id)
    )

    # -- warm query (index already built) ------------------------------------
    warm_new = SubsequenceMatcher(db)
    warm_new.find_matches(query, live_id)
    t_warm_new, _ = best_of(
        max(repeats * 20, 20), lambda: warm_new.find_matches(query, live_id)
    )
    warm_old = legacy_matcher(db)
    warm_old.find_matches(query, live_id)
    t_warm_old, _ = best_of(
        max(repeats * 5, 5), lambda: warm_old.find_matches(query, live_id)
    )

    # -- linear scan (paper baseline): legacy loop vs vectorised ------------
    t_scan_old, _ = best_of(repeats, lambda: legacy_scan(db, query))
    scan_serial = SubsequenceMatcher(db, use_index=False)
    t_scan_new, m_scan = best_of(
        repeats, lambda: scan_serial.find_matches(query, live_id)
    )

    # -- correctness: engines must agree exactly ------------------------------
    identical = match_keys(m_new) == match_keys(m_old) == match_keys(m_scan)
    assert identical, "columnar engine diverged from the pre-PR engine"

    payload = {
        "benchmark": "bench_index_scaling",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "host": host_record(),
        "workload": {
            "n_patients": config.n_patients,
            "sessions_per_patient": config.sessions_per_patient,
            "session_duration_s": config.session_duration,
            "n_streams": db.n_streams,
            "n_vertices": db.n_vertices,
            "query_n_vertices": query.n_vertices,
            "n_candidates": cand_new.n_candidates,
            "n_matches": len(m_new),
        },
        "timings_ms": {
            "index_build_new": t_build_new * 1e3,
            "index_build_legacy": t_build_old * 1e3,
            "cold_query_new": t_cold_new * 1e3,
            "cold_query_legacy": t_cold_old * 1e3,
            "warm_query_new": t_warm_new * 1e3,
            "warm_query_legacy": t_warm_old * 1e3,
            "linear_scan_legacy": t_scan_old * 1e3,
            "linear_scan_vectorised": t_scan_new * 1e3,
        },
        "speedups": {
            "index_build": t_build_old / t_build_new,
            "cold_query": t_cold_old / t_cold_new,
            "warm_query": t_warm_old / t_warm_new,
            "linear_scan": t_scan_old / t_scan_new,
        },
        "identical_matches": identical,
    }
    return payload


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

    speedups = payload["speedups"]
    timings = payload["timings_ms"]
    print(f"workload: {payload['workload']['n_vertices']} vertices, "
          f"{payload['workload']['n_candidates']} candidates, "
          f"{payload['workload']['n_matches']} matches")
    for name in ("index_build", "cold_query", "warm_query", "linear_scan"):
        old = timings.get(f"{name}_legacy", timings.get("linear_scan_legacy"))
        new = timings.get(f"{name}_new", timings.get("linear_scan_vectorised"))
        print(f"{name:>12}: {old:9.2f} ms -> {new:8.2f} ms   "
              f"({speedups[name]:.1f}x)")
    print(f"identical matches: {payload['identical_matches']}")
    print(f"wrote {args.output}")

    if not args.quick:
        # The acceptance floors for this engine at the 10k-vertex scale.
        assert payload["workload"]["n_vertices"] >= 10_000
        assert speedups["index_build"] >= 5.0, speedups
        assert speedups["cold_query"] >= 3.0, speedups
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
