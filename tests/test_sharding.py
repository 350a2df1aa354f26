"""Sharded serving-tier tests: router, partitioning, scatter/gather.

The centrepiece mirrors the service layer's isolation contract one
level up: a :class:`~repro.service.sharding.ShardCoordinator` scattering
a tenant fleet over ``REPRO_TEST_WORKERS`` worker processes must produce
**byte-identical** matches and predictions to one in-process
:class:`~repro.service.manager.SessionManager` hosting the same fleet —
and must keep doing so across a worker crash recovered by journal
replay plus frame-log re-feed.

Worker counts come from the ``REPRO_TEST_WORKERS`` environment variable
(default 2) so CI can matrix the same tests over wider fleets.
"""

import copy
import io
import json
import os
import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import CohortConfig, build_cohort
from repro.core.matching import Match, SourceRelation
from repro.core.online import OnlineSessionConfig
from repro.core.similarity import MatchMode, SimilarityParams
from repro.database.store import MotionDatabase
from repro.obs import Telemetry
from repro.service import (
    PipelineBuilder,
    SessionManager,
    ShardCoordinator,
    ShardRouter,
    partition_database,
)
from repro.service.sharding import (
    MAX_FRAME_BYTES,
    WireCorrupt,
    WireEOF,
    _recv_frame,
    _send_frame,
)
from repro.signals.respiratory import RespiratorySimulator, SessionConfig

from conftest import make_series
from tests_support import json_values, mutated_encodings

N_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
LATENCY = 0.2

COHORT = CohortConfig(
    n_patients=4,
    sessions_per_patient=2,
    session_duration=30.0,
    live_duration=20.0,
    seed=5,
)
TENANTS_PER_PATIENT = 2
LIVE_DURATION = 10.0


# -- router --------------------------------------------------------------------


class TestShardRouter:
    def test_assignment_is_deterministic_across_instances(self):
        a = ShardRouter(4)
        b = ShardRouter(4)
        for i in range(50):
            pid = f"P{i:03d}"
            assert a.shard_of(pid) == b.shard_of(pid)

    def test_partition_covers_every_patient_once(self):
        router = ShardRouter(3)
        patients = [f"P{i:03d}" for i in range(40)]
        groups = router.partition(patients)
        assert set(groups) == {0, 1, 2}
        flat = [pid for group in groups.values() for pid in group]
        assert sorted(flat) == sorted(patients)

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1)
        assert all(
            router.shard_of(f"P{i:03d}") == 0 for i in range(20)
        )

    def test_load_spreads_over_shards(self):
        router = ShardRouter(4)
        groups = router.partition(f"P{i:04d}" for i in range(400))
        # Consistent hashing with vnodes: no shard starves or hogs.
        assert all(len(group) >= 40 for group in groups.values())

    def test_ring_stability_under_resharding(self):
        # Growing the ring from 2 to 3 shards must leave most patients
        # on their old shard (the consistent-hashing contract).
        patients = [f"P{i:04d}" for i in range(300)]
        before = ShardRouter(2)
        after = ShardRouter(3)
        moved = sum(
            before.shard_of(pid) != after.shard_of(pid) for pid in patients
        )
        assert moved / len(patients) < 0.6

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, vnodes=0)


# -- partitioning --------------------------------------------------------------


class TestPartitionDatabase:
    def test_partition_colocates_each_patient_whole(self, tmp_path):
        cohort = build_cohort(COHORT)
        router = partition_database(cohort.db, tmp_path, N_WORKERS)
        seen_streams = []
        total_vertices = 0
        for shard in range(N_WORKERS):
            shard_db = MotionDatabase.open_shard(tmp_path, shard)
            for patient_id in shard_db.patient_ids:
                assert router.shard_of(patient_id) == shard
            seen_streams.extend(shard_db.stream_ids)
            total_vertices += shard_db.n_vertices
            shard_db.close()
        assert sorted(seen_streams) == sorted(cohort.db.stream_ids)
        assert total_vertices == cohort.db.n_vertices


# -- fleet serving -------------------------------------------------------------


def build_fleet():
    """Historical cohort + a small multi-session live fleet."""
    cohort = build_cohort(COHORT)
    session_config = SessionConfig(duration=LIVE_DURATION)
    raws = {}
    for i, profile in enumerate(cohort.profiles):
        for k in range(TENANTS_PER_PATIENT):
            raws[(profile.patient_id, f"T{k:02d}")] = RespiratorySimulator(
                profile, session_config
            ).generate_session(400 + k, seed=800 + 11 * i + k)
    return cohort.db, raws


def serve_single_process(db, raws, builder):
    manager = SessionManager(copy.deepcopy(db), builder=builder)
    by_stream = {}
    for (patient_id, session_id), raw in raws.items():
        session = manager.open_session(patient_id, session_id)
        by_stream[session.stream_id] = raw
    times = next(iter(by_stream.values())).times
    predictions = {sid: [] for sid in by_stream}
    for i, t in enumerate(times):
        manager.tick(
            float(t), {sid: raw.values[i] for sid, raw in by_stream.items()}
        )
        served = manager.predict_ahead_all(LATENCY)
        for sid in by_stream:
            predictions[sid].append(served[sid])
    matches = {sid: list(manager.session(sid).matches) for sid in by_stream}
    manager.close(keep_streams=False)
    return predictions, matches


def serve_sharded(
    db,
    raws,
    builder,
    root,
    n_workers=N_WORKERS,
    telemetry=None,
    worker_telemetry=False,
    faults=None,
    compact_at=(),
    kill=(),
    capture=None,
    failed_rpc_at=(),
    garble_at=(),
):
    """Drive a sharded fleet through the full tick/predict loop.

    ``compact_at`` lists tick indices at which the coordinator compacts
    the fleet (checkpointing sessions and truncating frame logs);
    ``kill`` lists ``(shard, tick)`` pairs hard-killed with SIGKILL just
    before that tick; ``capture``, when a dict, receives the final
    per-shard frame-log lengths and worker-side stream digests;
    ``failed_rpc_at`` lists tick indices just before which one exchange
    fails on every shard (an unknown op) and must raise; ``garble_at``
    lists ``(shard, tick, frame_bytes)`` triples: the coordinator reads
    ``frame_bytes`` in place of that shard's reply at that tick (and
    ``capture["garbled_workers"]`` receives the worker processes).
    """
    partition_database(db, root, n_workers)
    coordinator = ShardCoordinator(
        root,
        n_workers,
        builder=builder,
        telemetry=telemetry,
        worker_telemetry=worker_telemetry,
        faults=faults,
    )
    try:
        by_stream = {}
        for (patient_id, session_id), raw in raws.items():
            sid = coordinator.open_session(patient_id, session_id)
            by_stream[sid] = raw
        times = next(iter(by_stream.values())).times
        predictions = {sid: [] for sid in by_stream}
        for i, t in enumerate(times):
            if i in compact_at:
                coordinator.compact()
            for shard, at in kill:
                if i == at:
                    os.kill(coordinator._procs[shard].pid, signal.SIGKILL)
            for shard, at, frame_bytes in garble_at:
                if i == at:
                    coordinator._readers[shard] = _GarbledReader(
                        coordinator._readers[shard], frame_bytes
                    )
                    if capture is not None:
                        capture.setdefault("garbled_workers", []).append(
                            coordinator._procs[shard]
                        )
            if i in failed_rpc_at:
                with pytest.raises(RuntimeError, match="shard 0 RPC failed"):
                    coordinator._exchange(
                        {s: {"op": "no_such_op"} for s in range(n_workers)}
                    )
            coordinator.tick(
                float(t),
                {sid: raw.values[i] for sid, raw in by_stream.items()},
            )
            served = coordinator.predict_ahead_all(LATENCY)
            for sid in by_stream:
                predictions[sid].append(served[sid])
        matches = {sid: coordinator.matches_of(sid) for sid in by_stream}
        worker_snaps = (
            coordinator.worker_snapshots() if worker_telemetry else None
        )
        fleet = (
            coordinator.fleet_registry() if worker_telemetry else None
        )
        if capture is not None:
            capture["frame_log_lens"] = {
                shard: len(coordinator._frame_log[shard])
                for shard in range(n_workers)
            }
            digests = {}
            for shard in range(n_workers):
                digests.update(coordinator.digests(shard))
            capture["digests"] = digests
    finally:
        coordinator.close()
    return predictions, matches, fleet, worker_snaps


class _GarbledReader:
    """Serves ``garbage`` first, then reads the real socket."""

    def __init__(self, reader, garbage: bytes) -> None:
        self._reader = reader
        self._garbage = garbage

    def read(self, n: int) -> bytes:
        if self._garbage:
            chunk, self._garbage = self._garbage[:n], self._garbage[n:]
            return chunk
        return self._reader.read(n)

    def close(self) -> None:
        self._reader.close()


def assert_identical_predictions(a, b):
    assert set(a) == set(b)
    for sid in a:
        assert len(a[sid]) == len(b[sid])
        for x, y in zip(a[sid], b[sid]):
            assert (x is None) == (y is None)
            if x is not None:
                assert np.array_equal(x, y)


class TestShardedServeIdentity:
    def test_sharded_fleet_is_byte_identical_to_single_process(
        self, tmp_path
    ):
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        p_solo, m_solo = serve_single_process(db, raws, builder)
        p_sharded, m_sharded, _, _ = serve_sharded(
            db, raws, builder, tmp_path
        )
        assert_identical_predictions(p_solo, p_sharded)
        assert m_solo == m_sharded
        # The workload must actually exercise serving, not just warm up.
        assert any(m for m in m_solo.values())
        assert any(
            p is not None for series in p_solo.values() for p in series
        )

    @pytest.mark.parametrize(
        "similarity",
        [
            SimilarityParams(mode=MatchMode.NORMALIZED),
            SimilarityParams(mode=MatchMode.WARPED, warp_band=1),
        ],
        ids=["normalized", "warped"],
    )
    def test_sharded_fleet_identical_under_non_rigid_modes(
        self, tmp_path, similarity
    ):
        """The wire protocol carries the match mode: same contract per mode."""
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(
            OnlineSessionConfig(similarity=similarity)
        )
        p_solo, m_solo = serve_single_process(db, raws, builder)
        p_sharded, m_sharded, _, _ = serve_sharded(
            db, raws, builder, tmp_path
        )
        assert_identical_predictions(p_solo, p_sharded)
        assert m_solo == m_sharded
        assert any(m for m in m_solo.values())


class TestWorkerCrashRecovery:
    def test_crash_mid_serve_recovers_byte_identically(self, tmp_path):
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        golden, m_golden, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "golden"
        )

        # Crash the shard that owns the first patient, mid-stream.
        crash_shard = ShardRouter(N_WORKERS).shard_of(
            next(iter(raws))[0]
        )
        telemetry = Telemetry()
        crashed, m_crashed, _, _ = serve_sharded(
            db,
            raws,
            builder,
            tmp_path / "crashed",
            telemetry=telemetry,
            faults={crash_shard: {"site": "log.append", "at": 10}},
        )
        merged = telemetry.snapshot().merged
        assert merged.counter("router.worker_crashes") == 1
        assert merged.counter("router.recoveries") == 1
        assert_identical_predictions(golden, crashed)
        assert m_golden == m_crashed


def _n_live_ticks(raws):
    return len(next(iter(raws.values())).times)


class TestCompactionCheckpointRecovery:
    """Frame-log retention: compact() checkpoints sessions and truncates.

    The retention invariant under test: after ``compact()`` each shard's
    frame log holds only frames fed *since* the compaction watermark
    (the checkpoint replaces the prefix), and checkpoint + suffix replay
    to byte-identical fleet state after a hard worker kill.
    """

    def test_compact_truncates_frame_logs_at_watermark(self, tmp_path):
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        n_ticks = _n_live_ticks(raws)
        mid = n_ticks // 2
        capture = {}
        serve_sharded(
            db, raws, builder, tmp_path,
            compact_at=(mid,), capture=capture,
        )
        # Without truncation every log would hold all n_ticks frames.
        assert capture["frame_log_lens"]
        for shard, length in capture["frame_log_lens"].items():
            assert length <= n_ticks - mid, (shard, length)

    def test_kill_after_compact_recovers_byte_identically(self, tmp_path):
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        n_ticks = _n_live_ticks(raws)
        mid = n_ticks // 2
        golden_capture = {}
        golden, m_golden, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "golden",
            compact_at=(mid,), capture=golden_capture,
        )

        # SIGKILL (not a simulated fault): recovery must rebuild the
        # shard from checkpoint + post-watermark frame-log suffix only.
        crash_shard = ShardRouter(N_WORKERS).shard_of(next(iter(raws))[0])
        telemetry = Telemetry()
        crash_capture = {}
        crashed, m_crashed, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "crashed",
            telemetry=telemetry,
            compact_at=(mid,),
            kill=[(crash_shard, mid + 20)],
            capture=crash_capture,
        )
        merged = telemetry.snapshot().merged
        assert merged.counter("router.worker_crashes") == 1
        assert merged.counter("router.recoveries") == 1
        assert_identical_predictions(golden, crashed)
        assert m_golden == m_crashed
        assert golden_capture["digests"] == crash_capture["digests"]
        for shard, length in crash_capture["frame_log_lens"].items():
            assert length <= n_ticks - mid, (shard, length)

    def test_second_kill_replays_from_same_checkpoint(self, tmp_path):
        # The re-journaled checkpoint state must survive a *second*
        # crash of the same shard without a new compact() in between.
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        mid = _n_live_ticks(raws) // 2
        golden, m_golden, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "golden", compact_at=(mid,),
        )
        crash_shard = ShardRouter(N_WORKERS).shard_of(next(iter(raws))[0])
        telemetry = Telemetry()
        crashed, m_crashed, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "crashed",
            telemetry=telemetry,
            compact_at=(mid,),
            kill=[(crash_shard, mid + 15), (crash_shard, mid + 45)],
        )
        merged = telemetry.snapshot().merged
        assert merged.counter("router.worker_crashes") == 2
        assert merged.counter("router.recoveries") == 2
        assert_identical_predictions(golden, crashed)
        assert m_golden == m_crashed


class TestCompactionCrashRetry:
    def test_worker_death_mid_compaction_is_retried_once(self, tmp_path):
        """compact() recovers a worker that dies compacting and retries."""
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        n_ticks = _n_live_ticks(raws)
        mid = n_ticks // 2
        golden, m_golden, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "golden", compact_at=(mid,),
        )

        crash_shard = ShardRouter(N_WORKERS).shard_of(next(iter(raws))[0])
        telemetry = Telemetry()
        capture = {}
        crashed, m_crashed, _, _ = serve_sharded(
            db, raws, builder, tmp_path / "crashed",
            telemetry=telemetry,
            compact_at=(mid,),
            faults={crash_shard: {"site": "compact.columns", "at": 0}},
            capture=capture,
        )
        merged = telemetry.snapshot().merged
        assert merged.counter("router.worker_crashes") == 1
        assert merged.counter("router.recoveries") == 1
        assert_identical_predictions(golden, crashed)
        assert m_golden == m_crashed
        for shard, length in capture["frame_log_lens"].items():
            assert length <= n_ticks - mid, (shard, length)


class TestFleetRegistry:
    def test_fleet_registry_merges_worker_counters_exactly(self, tmp_path):
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        _, _, fleet, worker_snaps = serve_sharded(
            db, raws, builder, tmp_path, worker_telemetry=True
        )
        assert set(worker_snaps) == set(range(N_WORKERS))
        # Each worker's exposition payload (its merged counters).
        per_worker = {
            shard: payload["merged"]["counters"]
            for shard, payload in worker_snaps.items()
        }
        # Exact-count oracle: every frame fed lands in exactly one
        # worker's service.frames counter, and the fleet view is the
        # arithmetic sum of the per-worker registries.
        n_frames = len(next(iter(raws.values())).times)
        assert fleet.counter("service.frames") == len(raws) * n_frames
        for name in ("service.frames", "service.ticks", "shard.find_serves"):
            assert fleet.counter(name) == sum(
                counters.get(name, 0.0) for counters in per_worker.values()
            )
        # Introspection is itself RPC traffic: the fleet snapshot is
        # taken exactly one RPC (the fleet_registry call) after each
        # per-worker snapshot.
        assert fleet.counter("shard.rpcs") == N_WORKERS + sum(
            counters["shard.rpcs"] for counters in per_worker.values()
        )


class TestFailedExchange:
    def test_every_reply_is_drained_before_the_error_is_raised(
        self, tmp_path
    ):
        """Regression: the first ``ok: false`` reply raised at once and
        left the later shards' replies unread, so the coordinator's next
        RPC read a stale reply.  After a failed exchange on every shard,
        serving must carry on byte-identical to a single process."""
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        p_solo, m_solo = serve_single_process(db, raws, builder)
        n_ticks = len(next(iter(raws.values())).times)
        p_sharded, m_sharded, _, _ = serve_sharded(
            db,
            raws,
            builder,
            tmp_path,
            failed_rpc_at=(0, n_ticks // 2),
        )
        assert_identical_predictions(p_solo, p_sharded)
        assert m_solo == m_sharded


# -- wire frames ---------------------------------------------------------------


class _CapturingSocket:
    def __init__(self) -> None:
        self.sent = b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: A parseable tick reply whose one relayed event carries a payload tag
#: no codec knows.
_UNKNOWN_TAG_TICK_REPLY = {
    "ok": True,
    "committed": {},
    "refreshed": [],
    "events": [
        {
            "__repro__": "event",
            "kind": "alarm",
            "data": {"x": {"__repro__": "bogus"}},
        }
    ],
}

#: A parseable tick reply whose one relayed event carries a known tag with
#: an invalid field: a series whose times decrease.
_DECREASING_SERIES_TICK_REPLY = {
    "ok": True,
    "committed": {},
    "refreshed": [],
    "events": [
        {
            "__repro__": "event",
            "kind": "alarm",
            "data": {
                "x": {
                    "__repro__": "series",
                    "times": [1.0, 0.5],
                    "positions": [[0.0], [1.0]],
                    "states": [0, 1],
                }
            },
        }
    ],
}


class TestWireFrames:
    def test_valid_frame_round_trips(self):
        obj = {"op": "tick", "t": 0.1, "samples": {"PA/T00": [1.5, -2.25]}}
        sock = _CapturingSocket()
        _send_frame(sock, obj)
        reader = io.BytesIO(sock.sent)
        assert _recv_frame(reader) == obj
        assert reader.read() == b""

    def test_oversized_prefix_is_refused_after_the_header(self):
        """Regression: a garbled prefix asked ``read`` for up to 4 GiB."""
        reader = io.BytesIO(
            struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}" * 64
        )
        with pytest.raises(WireCorrupt, match="MAX_FRAME_BYTES"):
            _recv_frame(reader)
        assert reader.tell() == 4

    @pytest.mark.parametrize(
        "body",
        [b"\xff\xfe\x00\x01", b'{"op": "tick"', b"[1, 2]"],
        ids=["not-utf8", "not-json", "not-an-object"],
    )
    def test_garbled_body_is_corrupt(self, body):
        """Regression: the decode errors escaped every except clause."""
        with pytest.raises(WireCorrupt):
            _recv_frame(io.BytesIO(_frame(body)))

    @settings(max_examples=200, deadline=None)
    @given(body=st.binary(max_size=64))
    def test_arbitrary_bytes_read_as_a_frame_or_a_dead_peer(self, body):
        try:
            frame = _recv_frame(io.BytesIO(_frame(body)))
        except WireEOF:  # WireCorrupt included
            return
        assert type(frame) is dict

    @settings(max_examples=300, deadline=None)
    @given(value=json_values())
    def test_arbitrary_json_reads_as_a_frame_or_corrupt(self, value):
        body = json.dumps(value).encode("utf-8")
        try:
            frame = _recv_frame(io.BytesIO(_frame(body)))
        except WireCorrupt:
            return
        assert type(frame) is dict

    @settings(max_examples=300, deadline=None)
    @given(case=mutated_encodings())
    def test_a_malformed_value_makes_the_frame_corrupt(self, case):
        """A reply carrying a real value of any codec tag with a field
        dropped, retyped or made invalid is read whole or refused whole."""
        tag, value, must_refuse = case
        body = json.dumps({"ok": True, "events": [value]}).encode("utf-8")
        reader = io.BytesIO(_frame(body))
        if must_refuse:
            with pytest.raises(WireCorrupt):
                _recv_frame(reader)
        else:
            try:
                assert type(_recv_frame(reader)) is dict
            except WireCorrupt:
                pass

    def test_truncated_body_is_still_eof(self):
        body = json.dumps({"op": "tick"}).encode("utf-8")
        with pytest.raises(WireEOF) as raised:
            _recv_frame(io.BytesIO(_frame(body)[:-3]))
        assert not isinstance(raised.value, WireCorrupt)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"\xff\xff\xff\xff",
            _frame(b"\xff\xfe\xfd\xfc"),
            _frame(json.dumps(_UNKNOWN_TAG_TICK_REPLY).encode("utf-8")),
            _frame(json.dumps(_DECREASING_SERIES_TICK_REPLY).encode("utf-8")),
        ],
        ids=["oversized-prefix", "garbled-body", "unknown-tag", "bad-series"],
    )
    def test_corrupt_reply_recovers_byte_identically(self, tmp_path, garbage):
        """A corrupt reply takes the crash path: respawn, journal replay
        and frame-log re-feed, then serving stays byte-identical.  A
        well-formed reply whose payload names an unknown tag, or a known
        tag with an invalid field, is corrupt too, and none of it is
        applied."""
        db, raws = build_fleet()
        builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
        p_solo, m_solo = serve_single_process(db, raws, builder)
        shard = ShardRouter(N_WORKERS).shard_of(next(iter(raws))[0])
        telemetry = Telemetry()
        capture = {}
        p_sharded, m_sharded, _, _ = serve_sharded(
            db,
            raws,
            builder,
            tmp_path,
            telemetry=telemetry,
            capture=capture,
            garble_at=[(shard, _n_live_ticks(raws) // 2, garbage)],
        )
        merged = telemetry.snapshot().merged
        assert merged.counter("router.recoveries") == 1
        assert_identical_predictions(p_solo, p_sharded)
        assert m_solo == m_sharded
        # The corrupt peer was alive: recovery must close its reader so
        # it reads EOF and exits by itself, rather than wait out the
        # 30 s join and terminate it.
        (peer,) = capture["garbled_workers"]
        assert peer.exitcode not in (None, -signal.SIGTERM)


# -- foreign-series pooling ----------------------------------------------------


class TestForeignSeriesPooling:
    def test_adoption_reuses_series_shipped_for_another_tenant(self):
        """The coordinator ships each foreign stream to a shard once;
        a later adoption by a *different* tenant must resolve the same
        stream from the manager-level pool (regression: per-session
        caches dropped pooled series and predict raised ``KeyError``)."""
        db = MotionDatabase()
        db.add_patient("PA")
        db.add_patient("PB")
        manager = SessionManager(db, builder=PipelineBuilder(min_matches=1))
        session_a = manager.open_session("PA", "LIVE")
        session_b = manager.open_session("PB", "LIVE")
        foreign = make_series(cycles=3)
        match = Match(
            stream_id="PX/S00",
            start=0,
            n_vertices=4,
            distance=0.5,
            relation=SourceRelation.OTHER_PATIENT,
        )
        manager.adopt_matches(
            session_a.stream_id, [match], {"PX/S00": foreign}
        )
        # Second tenant adopts the same match with *no* series payload.
        manager.adopt_matches(session_b.stream_id, [match], None)
        for session in (session_a, session_b):
            resolved = session._match_series["PX/S00"]
            assert np.array_equal(resolved.times, foreign.times)
        manager.close(keep_streams=False)
