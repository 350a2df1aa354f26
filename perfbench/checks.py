"""Output checks, run after serving and never timed.

Single-process workloads: each sampled tenant's final match set must
equal the frozen oracle (``reference_matches_for_mode``) over a copy of
the history plus that tenant's stream only, which is the solo semantics
``SessionManager`` promises, and its final prediction must equal
``reference_prediction`` bit for bit.

Sharded workload: every tick's predictions and every final match set
must be byte-identical to one in-process ``SessionManager`` fed the
same inputs.
"""

from __future__ import annotations

import numpy as np

from repro.database.store import MotionDatabase
from repro.testing.oracle import (
    EquivalenceError,
    check_equivalence,
    reference_matches_for_mode,
    reference_prediction,
)

from workloads import LATENCY


def solo_copy(database: MotionDatabase, live: set[str], stream_id: str):
    """The history plus one tenant's stream, in a fresh in-memory store."""
    copy = MotionDatabase()
    for patient in database.iter_patients():
        copy.add_patient(patient.patient_id, patient.attributes)
    for record in database.iter_streams():
        if record.stream_id in live and record.stream_id != stream_id:
            continue
        copy.add_stream(
            patient_id=record.patient_id,
            session_id=record.session_id,
            series=record.series,
            stream_id=record.stream_id,
        )
    return copy


def oracle_matches(copy: MotionDatabase, session) -> list:
    """The frozen oracle's matches for one tenant's current query."""
    if session.query is None:
        return []
    config = session.config
    return reference_matches_for_mode(
        copy,
        session.query,
        query_stream_id=session.stream_id,
        max_matches=config.max_matches,
        restrict_patients=config.restrict_patients,
        params=config.similarity,
    )


def oracle_prediction(copy: MotionDatabase, session, matches, last_time):
    """``reference_prediction`` over ``matches`` at the last tick's target."""
    if session.query is None or not matches:
        return None
    config = session.config
    return reference_prediction(
        copy,
        session.query,
        matches,
        last_time + LATENCY - session.ingestor.series.end_time,
        params=config.similarity,
        min_matches=config.min_matches,
        anchor=session.predictor.anchor,
        distance_weighted=session.predictor.distance_weighted,
    )


def same_prediction(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


def compare_tenant(
    stream_id: str,
    matches,
    prediction,
    expected_matches,
    expected_prediction,
    max_matches: int | None = None,
) -> list[str]:
    """Mismatch descriptions for one tenant (empty when it agrees).

    Matches are compared under the oracle module's own contract
    (:func:`~repro.testing.oracle.check_equivalence`: equal identity
    sets, non-decreasing order, distances within its tolerance), since
    vectorised and sequential sums may differ in the last bit.  The
    prediction must be bit-identical.
    """
    failures = []
    try:
        check_equivalence(matches, expected_matches, max_matches=max_matches)
    except EquivalenceError as exc:
        failures.append(f"{stream_id}: {exc}")
    if not same_prediction(prediction, expected_prediction):
        failures.append(
            f"{stream_id}: prediction {prediction!r} differs from the "
            f"oracle's {expected_prediction!r}"
        )
    return failures


def check_against_oracle(manager, sampled: list[str], result) -> list[str]:
    """Oracle check of the sampled tenants of a single-process run.

    The reference prediction is recomputed from the tenant's own match
    list once that list has passed the match check, so a near-tie that
    the two distance sums order differently cannot fail the bit-exact
    prediction check.
    """
    live = set(manager.live_stream_ids())
    failures = []
    for sid in sampled:
        session = manager.session(sid)
        copy = solo_copy(manager.database, live, sid)
        matches = session.matches
        failures += compare_tenant(
            sid,
            matches,
            result.last_predictions.get(sid),
            oracle_matches(copy, session),
            oracle_prediction(copy, session, matches, result.last_time),
            max_matches=session.config.max_matches,
        )
    return failures


def check_identical(
    digests, reference_digests, matches, reference_matches
) -> list[str]:
    """Byte-identity of a run against the single-process reference."""
    failures = []
    if len(digests) != len(reference_digests):
        failures.append(
            f"{len(digests)} ticks served against the reference's "
            f"{len(reference_digests)}"
        )
    for i, (a, b) in enumerate(zip(digests, reference_digests)):
        if a != b:
            failures.append(f"tick {i}: predictions differ from the reference")
            break
    for sid, expected in reference_matches.items():
        if list(matches.get(sid, ())) != list(expected):
            failures.append(f"{sid}: final matches differ from the reference")
    return failures
