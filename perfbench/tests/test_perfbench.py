"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import measure  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder, SpanTable, self_times  # noqa: E402

from repro.core.matching import Match, SubsequenceMatcher  # noqa: E402
from repro.core.similarity import SourceRelation  # noqa: E402
from repro.database.store import MotionDatabase  # noqa: E402
from repro.testing.oracle import reference_matches, reference_prediction  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(workload: workloads.Workload) -> workloads.Workload:
    """The same workload shape at a size that serves in seconds."""
    tenants = workload.tenants
    if workload.name == "fleet-rigid":
        tenants = workloads._fleet(3, 2)
    elif workload.name == "sharded-durable":
        tenants = workloads._fleet(6, 1)
    return dataclasses.replace(
        workload,
        n_patients=max(6, max(t.patient_index for t in tenants) + 1),
        sessions_per_patient=1,
        session_duration=60.0,
        tenants=tenants,
        live_duration=40.0,
        episodes=1,
        groups=1,
        trace_ticks=300,
        checked_tenants=(0,) if workload.checked_tenants else (),
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric_with_its_unit(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name]
    if workload.n_workers > len(os.sched_getaffinity(0)):
        pytest.skip("needs one usable CPU per shard worker")
    small = toy(workload)
    workloads.generate(small, 3, tmp_path / "inputs")
    inputs = workloads.load(small, tmp_path / "inputs" / "episode-0" / "group-0")
    if trace:
        spans = tmp_path / "spans.npz"
        outcome = measure.run_traced(inputs, tmp_path / "work", spans)
        assert outcome["failures"] == []
        assert outcome["result"]["correct"] is True
        assert outcome["result"]["failed"] == 0
        metrics = outcome["result"]["metrics"]
        assert 0.0 <= metrics["unattributed_share"]["value"] < 0.05
        assert spans.exists()
    else:
        outcome = measure.run_timed([inputs], tmp_path / "work", 1.0, rounds=1)
        assert outcome["failures"] == []
        assert len(outcome["latencies"]) >= 1
        metrics, _ = run.combine([outcome, outcome])
    catalogue = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in catalogue}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for value in metrics.values():
        assert np.isfinite(value["value"])


def test_tenant_groups_are_served_on_one_set_up(tmp_path):
    small = dataclasses.replace(
        toy(workloads.WORKLOADS["modes-large"]), n_patients=12, groups=2
    )
    workloads.generate(small, 3, tmp_path, episodes=2)
    first, second, again = (
        workloads.load(small, tmp_path / f"episode-{e}" / f"group-{g}")
        for e, g in ((0, 0), (0, 1), (1, 0))
    )
    assert first.source.resolve() == second.source.resolve()
    assert first.source.resolve() == again.source.resolve()
    patients = [{t[0] for t in inputs.tenants} for inputs in (first, second)]
    assert len(patients[0]) == len(patients[1]) == 6
    assert not patients[0] & patients[1]
    # Another episode, or another seed: the same tenants, other streams.
    assert again.meta["tenants"] == first.meta["tenants"]
    assert not np.array_equal(again.frames, first.frames)
    workloads.generate(small, 4, tmp_path / "other")
    other = workloads.load(small, tmp_path / "other" / "episode-0" / "group-0")
    assert other.meta["history_vertices"] == first.meta["history_vertices"]
    assert other.meta["tenants"] == first.meta["tenants"]
    assert not np.array_equal(other.frames, first.frames)
    with pytest.raises(ValueError):
        workloads.generate(
            dataclasses.replace(small, groups=3), 3, tmp_path / "more"
        )
    outcome = measure.run_timed([first, second], tmp_path / "work", 1.0, rounds=1)
    assert outcome["failures"] == []
    assert len(outcome["latencies"]) > 1


def test_benchmark_json_matches_the_catalogue():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [n for n in workloads.WORKLOADS if n not in workloads.UNLISTED]
    assert set(workloads.UNLISTED) <= set(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(report.PER_LAYER)


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-src")
    code = run.main(
        ["--workload", "fleet-rigid", "--seed", "1", "--seconds", "1"]
    )
    assert code != 0
    assert '"metrics"' not in capsys.readouterr().out


@pytest.mark.parametrize("band", [0, 1])
def test_primed_lengths_cover_every_length_a_query_looks_up(band):
    from repro.core.model import PLRSeries
    from repro.core.query import generate_query, warped_length_range

    db, _, _, _ = _history()
    primed = set(workloads.primed_lengths(band))
    seen = set()
    for sid in db.stream_ids:
        s = db.stream(sid).series
        for cut in range(2, len(s) + 1):
            prefix = PLRSeries.from_dense(
                s.times[:cut], s.positions[:cut], s.states[:cut]
            )
            query = generate_query(prefix)
            if query is not None:
                seen.add(query.n_vertices)
                assert set(warped_length_range(query.n_vertices, band)) <= primed
    assert len(seen) > 1


# -- the output checker --------------------------------------------------------


def _history():
    """A small database, a query cut from it, and the oracle's matches."""
    from repro.analysis.experiments import CohortConfig, build_cohort

    db = build_cohort(
        CohortConfig(n_patients=3, sessions_per_patient=2, seed=4)
    ).db
    series = db.stream(db.stream_ids[0]).series
    query = series.subsequence(len(series) - 8, len(series))
    sid = db.stream_ids[0]
    matches = reference_matches(db, query, sid)
    assert len(matches) >= 3
    return db, query, sid, matches


def test_checker_accepts_the_engine_and_rejects_a_perturbed_match_list():
    db, query, sid, oracle = _history()
    engine = SubsequenceMatcher(db).find_matches(query, sid)
    assert checks.compare_tenant(sid, engine, None, oracle, None) == []

    dropped = engine[:-1]
    moved = [dataclasses.replace(engine[0], start=engine[0].start + 1)]
    moved += engine[1:]
    farther = [dataclasses.replace(engine[0], distance=engine[0].distance + 1e-3)]
    farther += engine[1:]
    relabelled = [
        dataclasses.replace(engine[0], relation=SourceRelation.OTHER_PATIENT)
        if engine[0].relation is not SourceRelation.OTHER_PATIENT
        else dataclasses.replace(engine[0], relation=SourceRelation.SAME_STREAM)
    ] + engine[1:]
    for perturbed in (dropped, moved, farther, relabelled, engine[::-1]):
        assert checks.compare_tenant(sid, perturbed, None, oracle, None)


def test_checker_rejects_a_perturbed_prediction():
    db, query, sid, oracle = _history()
    expected = reference_prediction(db, query, oracle, 0.2)
    assert expected is not None
    assert checks.compare_tenant(sid, oracle, expected.copy(), oracle, expected) == []
    nudged = np.nextafter(expected, np.inf)
    assert checks.compare_tenant(sid, oracle, nudged, oracle, expected)
    assert checks.compare_tenant(sid, oracle, None, oracle, expected)
    assert checks.compare_tenant(sid, oracle, expected, oracle, None)


def test_identity_check_rejects_perturbed_predictions_and_matches():
    sids = ["A/T00", "B/T00"]
    ticks = [{"A/T00": np.array([1.0]), "B/T00": None}] * 3
    digests = [checks_digest(t, sids) for t in ticks]
    match = Match("H/S00", 3, 7, 0.5, SourceRelation.OTHER_PATIENT)
    finals = {"A/T00": [match], "B/T00": []}
    assert checks.check_identical(digests, digests, finals, finals) == []

    nudged = list(ticks)
    nudged[1] = {"A/T00": np.nextafter(np.array([1.0]), 2.0), "B/T00": None}
    assert checks.check_identical(
        [checks_digest(t, sids) for t in nudged], digests, finals, finals
    )
    assert checks.check_identical(digests[:2], digests, finals, finals)
    other = {"A/T00": [dataclasses.replace(match, start=4)], "B/T00": []}
    assert checks.check_identical(digests, digests, other, finals)


def checks_digest(predictions, sids):
    from serving import digest_predictions

    return digest_predictions(predictions, sids)


def test_solo_copy_keeps_history_and_one_tenant_only():
    db = MotionDatabase()
    for pid in ("P0", "P1"):
        db.add_patient(pid)
        db.add_stream(pid, "S00")
        db.add_stream(pid, "T00")
    copy = checks.solo_copy(db, {"P0/T00", "P1/T00"}, "P1/T00")
    assert copy.stream_ids == ("P0/S00", "P1/S00", "P1/T00")
    assert copy.patient_ids == ("P0", "P1")


# -- the self-time arithmetic --------------------------------------------------


def test_self_time_on_a_synthetic_nested_span_set():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [9, 12] (overhanging root); a has one child d [2, 3].
    starts = np.array([0.0, 1.0, 3.0, 9.0, 2.0])
    ends = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    parents = np.array([-1, 0, 0, 0, 1])
    selfs = self_times(starts, ends, parents)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 5 - 1
    np.testing.assert_allclose(selfs, [4.0, 2.0, 3.0, 3.0, 1.0])


def test_span_table_budget_adds_up_to_the_roots():
    recorder = SpanRecorder()
    names = {n: recorder.name_id(n) for n in ("tick", "find", "kernel")}
    # Two sequential roots with properly nested, disjoint children.
    layout = [
        ("tick", 0.0, 5.0, -1),
        ("find", 1.0, 3.0, 0),
        ("kernel", 1.5, 2.0, 1),
        ("kernel", 2.5, 2.75, 1),
        ("tick", 6.0, 8.0, -1),
        ("find", 6.5, 7.5, 4),
    ]
    for name, start, end, parent in layout:
        recorder.name_ids.append(names[name])
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
        recorder.ticks.append(0)
    table = SpanTable(recorder)
    assert table.self_s("tick") == pytest.approx(3.0 + 1.0)
    assert table.self_s("find") == pytest.approx(1.25 + 1.0)
    assert table.self_s("kernel") == pytest.approx(0.75)
    assert table.total_self_s() == pytest.approx(5.0 + 2.0)
    assert table.incl_s("find") == pytest.approx(3.0)
    assert table.calls("kernel") == 2
    assert table.share_with_child("tick", "find") == 1.0
    assert table.share_with_child("find", "kernel") == 0.5


def test_recorder_reset_keeps_the_name_table():
    recorder = SpanRecorder()
    nid = recorder.name_id("tick")
    recorder.close(recorder.open(nid))
    recorder.reset()
    assert recorder.starts == [] and recorder.names == ["tick"]
    assert recorder.name_id("tick") == nid


# -- the program defect serving.materialise_series works around ----------------


@pytest.mark.xfail(
    strict=True,
    raises=IndexError,
    reason="program defect: PLRSeries.n_segments ignores columns adopted "
    "by from_dense, so position_at raises on a reopened compacted store",
)
def test_reopened_series_answers_position_at(tmp_path):
    from repro.analysis.experiments import CohortConfig, build_cohort
    from repro.database.backend import LoggedBackend

    history = build_cohort(CohortConfig(n_patients=1, sessions_per_patient=1)).db
    logged = MotionDatabase(backend=LoggedBackend(tmp_path / "db"))
    for patient in history.iter_patients():
        logged.add_patient(patient.patient_id)
    for record in history.iter_streams():
        logged.add_stream(
            record.patient_id, record.session_id, series=record.series
        )
    logged.compact()
    logged.close()
    reopened = MotionDatabase(backend=LoggedBackend(tmp_path / "db"))
    for record in history.iter_streams():
        series = history.stream(record.stream_id).series
        t = float(series.times[1] + series.times[2]) / 2
        np.testing.assert_array_equal(
            reopened.stream(record.stream_id).series.position_at(t),
            series.position_at(t),
        )
    reopened.close()
