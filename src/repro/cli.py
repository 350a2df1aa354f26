"""Command-line interface.

Small operational commands over the library::

    python -m repro simulate --patients 3 --sessions 2 --out cohort.json
    python -m repro inspect cohort.json
    python -m repro replay cohort.json --patient P000 --horizon 0.2
    python -m repro serve-replay cohort.json --live 3 --latency 0.2
    python -m repro serve-replay cohort.json --live 6 --workers 2
    python -m repro cluster cohort.json -k 3
    python -m repro compact ./durable-db
    python -m repro motifs ./durable-db --length 8
    python -m repro anomalies ./durable-db --length 8 --json
    python -m repro metrics cohort.json --live 3 --json

``simulate`` builds a synthetic cohort database snapshot; ``inspect``
summarises one; ``replay`` runs the online prediction pipeline for one
patient's fresh session against it; ``serve-replay`` replays several
patients *concurrently* through the multi-tenant session service (a
smoke test of the service layer — with ``--workers N`` the fleet runs
through the sharded multi-process tier instead); ``cluster`` runs the
offline Definition 3/4 + k-medoids analysis; ``compact`` rolls a
durable database directory (or every ``shard-NNN`` under a sharded
root) into a fresh columnar snapshot generation; ``motifs`` and
``anomalies`` run one batch of the offline analytics tier (fleet-wide
motif discovery / no-match anomaly mining) over the read-only snapshot
scans of such a directory; ``metrics`` runs the
same multi-tenant replay fully instrumented and prints the final
telemetry snapshot (text or ``--json``).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _checked(convert, accept, expected: str):
    """argparse type: ``convert(text)`` when ``accept`` holds for it;
    anything else exits 2 with argparse's message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            )
        return value

    return parse


# NaN fails every comparison, so the chained bounds also reject it.
_LOOK_AHEAD = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_SECONDS = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subsequence matching on structured time series data "
        "(SIGMOD 2005 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="generate a synthetic cohort database snapshot"
    )
    p_sim.add_argument("--patients", type=int, default=3)
    p_sim.add_argument("--sessions", type=int, default=2)
    p_sim.add_argument("--duration", type=float, default=90.0,
                       help="session length in seconds")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="snapshot path (.json)")

    p_ins = sub.add_parser("inspect", help="summarise a database snapshot")
    p_ins.add_argument("snapshot")

    p_rep = sub.add_parser(
        "replay", help="replay a fresh live session against a snapshot"
    )
    p_rep.add_argument("snapshot")
    p_rep.add_argument("--patient", required=True)
    p_rep.add_argument("--duration", type=_SECONDS, default=45.0)
    p_rep.add_argument("--horizon", type=_LOOK_AHEAD, default=0.2)
    p_rep.add_argument("--seed", type=int, default=99)

    p_srv = sub.add_parser(
        "serve-replay",
        help="replay several patients concurrently through the "
        "multi-tenant session service",
    )
    p_srv.add_argument("snapshot")
    p_srv.add_argument("--live", type=_AT_LEAST_ONE, default=3,
                       help="number of concurrent live sessions")
    p_srv.add_argument("--duration", type=_SECONDS, default=30.0)
    p_srv.add_argument("--latency", type=_LOOK_AHEAD, default=0.2,
                       help="prediction look-ahead in seconds")
    p_srv.add_argument("--seed", type=int, default=99)
    p_srv.add_argument("--workers", type=_AT_LEAST_ONE, default=1,
                       help="shard worker processes (1 = in-process "
                       "single-manager serving, the default)")
    p_srv.add_argument("--match-mode", default="rigid",
                       choices=["rigid", "normalized", "warped"],
                       help="similarity regime for every session's "
                       "retrieval (default: rigid)")

    p_cmp = sub.add_parser(
        "compact",
        help="compact a durable (logged-backend) database directory "
        "into a fresh columnar snapshot generation",
    )
    p_cmp.add_argument("directory",
                       help="a LoggedBackend directory, or a sharded "
                       "root holding shard-NNN subdirectories")
    p_cmp.add_argument("--no-index", action="store_true",
                       help="skip snapshotting the signature index")

    def _add_analytics_arguments(p) -> None:
        p.add_argument("directory",
                       help="a LoggedBackend directory, or a sharded "
                       "root holding shard-NNN subdirectories")
        p.add_argument("--length", type=int, default=8,
                       help="window length in vertices (default: 8)")
        p.add_argument("--threshold", type=float, default=None,
                       help="match distance threshold delta (default: "
                       "the similarity params' threshold)")
        p.add_argument("--zone", type=int, default=1,
                       help="trivial-match exclusion zone in start "
                       "offsets (default: 1)")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")

    p_mot = sub.add_parser(
        "motifs",
        help="mine fleet-wide motifs from a durable database directory's "
        "committed snapshots",
    )
    _add_analytics_arguments(p_mot)
    p_mot.add_argument("--min-count", type=int, default=1,
                       help="minimum non-trivial matches for a motif "
                       "(default: 1)")
    p_mot.add_argument("--max-motifs", type=int, default=10,
                       help="stop after this many motifs (default: 10)")

    p_ano = sub.add_parser(
        "anomalies",
        help="mine no-match-under-delta anomaly windows from a durable "
        "database directory's committed snapshots",
    )
    _add_analytics_arguments(p_ano)
    p_ano.add_argument("--top", type=int, default=10,
                       help="print at most this many anomaly windows "
                       "(default: 10)")

    p_clu = sub.add_parser(
        "cluster", help="offline stream/patient clustering of a snapshot"
    )
    p_clu.add_argument("snapshot")
    p_clu.add_argument("-k", type=int, default=3)

    p_met = sub.add_parser(
        "metrics",
        help="run an instrumented multi-tenant replay and print the "
        "final telemetry snapshot",
    )
    p_met.add_argument("snapshot")
    p_met.add_argument("--live", type=_AT_LEAST_ONE, default=3,
                       help="number of concurrent live sessions")
    p_met.add_argument("--duration", type=_SECONDS, default=30.0)
    p_met.add_argument("--latency", type=_LOOK_AHEAD, default=0.2,
                       help="prediction look-ahead in seconds")
    p_met.add_argument("--seed", type=int, default=99)
    p_met.add_argument("--interval", type=_SECONDS, default=5.0,
                       help="snapshot publication interval in stream-seconds")
    p_met.add_argument("--json", action="store_true",
                       help="emit the machine-readable JSON exposition")
    p_met.add_argument("--match-mode", default="rigid",
                       choices=["rigid", "normalized", "warped"],
                       help="similarity regime for every session's "
                       "retrieval (default: rigid)")
    return parser


def _mode_builder(match_mode: str):
    """A :class:`PipelineBuilder` carrying the requested match mode.

    The mode rides :class:`SimilarityParams`, so it threads through the
    session manager and the sharded wire protocol unchanged; with
    ``rigid`` the builder equals the managers' default.
    """
    from .core.similarity import SimilarityParams
    from .service.builder import PipelineBuilder

    return PipelineBuilder(similarity=SimilarityParams(mode=match_mode))


def _cmd_simulate(args) -> int:
    from .core.segmentation import segment_signal
    from .database.store import MotionDatabase
    from .signals.patients import generate_population
    from .signals.respiratory import RespiratorySimulator, SessionConfig

    profiles = generate_population(args.patients, seed=args.seed)
    db = MotionDatabase()
    for p_index, profile in enumerate(profiles):
        db.add_patient(profile.patient_id, profile.attributes)
        simulator = RespiratorySimulator(
            profile, SessionConfig(duration=args.duration)
        )
        for k in range(args.sessions):
            raw = simulator.generate_session(
                k, seed=args.seed * 7919 + p_index * 101 + k
            )
            db.add_stream(
                profile.patient_id,
                f"S{k:02d}",
                series=segment_signal(raw.times, raw.values),
            )
    db.save(args.out)
    print(f"wrote {db.n_patients} patients / {db.n_streams} streams / "
          f"{db.n_vertices} vertices to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    from .database.store import MotionDatabase

    db = MotionDatabase.load(args.snapshot)
    print(db)
    for patient in db.iter_patients():
        attrs = patient.attributes
        extra = (
            f"  [{attrs.tumor_site}/{attrs.pathology}, age {attrs.age}]"
            if attrs
            else ""
        )
        print(f"  {patient.patient_id}: {patient.n_streams} streams{extra}")
        for stream in patient.streams.values():
            series = stream.series
            print(
                f"    {stream.stream_id}: {len(series)} vertices, "
                f"{series.duration:.0f}s"
            )
    return 0


def _cmd_replay(args) -> int:
    from .analysis.replay import ReplayConfig, replay_session
    from .database.store import MotionDatabase
    from .signals.patients import generate_population
    from .signals.respiratory import RespiratorySimulator, SessionConfig

    db = MotionDatabase.load(args.snapshot)
    if args.patient not in db.patient_ids:
        print(f"error: unknown patient {args.patient!r}", file=sys.stderr)
        return 2
    record = db.patient(args.patient)
    if record.attributes is None:
        print("error: snapshot has no attributes for this patient",
              file=sys.stderr)
        return 2
    from .signals.patients import PatientProfile, traits_from_attributes

    rng = np.random.default_rng(args.seed)
    profile = PatientProfile(
        record.attributes, traits_from_attributes(record.attributes, rng)
    )
    raw = RespiratorySimulator(
        profile, SessionConfig(duration=args.duration)
    ).generate_session(0, seed=args.seed)
    result = replay_session(
        db, raw, ReplayConfig(horizons=(args.horizon,))
    )
    summary = result.summary(args.horizon)
    print(
        f"patient {args.patient}: {summary.n} predictions at "
        f"{args.horizon * 1000:.0f} ms, mean error {summary.mean:.3f} mm "
        f"(p95 {summary.p95:.3f}), coverage {result.coverage:.2f}"
    )
    return 0


def _live_raws(db, live: int, duration: float, seed: int):
    """One fresh raw session per tenant, or ``None`` on a short snapshot.

    Identical ``SessionConfig`` means one shared acquisition clock, so
    the manager can batch per tick.
    """
    from .signals.patients import PatientProfile, traits_from_attributes
    from .signals.respiratory import RespiratorySimulator, SessionConfig

    candidates = [
        p for p in db.iter_patients() if p.attributes is not None
    ][:live]
    if len(candidates) < live:
        print(
            f"error: snapshot has only {len(candidates)} patients with "
            f"attributes, --live {live} requested",
            file=sys.stderr,
        )
        return None
    session_config = SessionConfig(duration=duration)
    raws = {}
    for k, record in enumerate(candidates):
        rng = np.random.default_rng(seed + k)
        profile = PatientProfile(
            record.attributes, traits_from_attributes(record.attributes, rng)
        )
        raws[record.patient_id] = RespiratorySimulator(
            profile, session_config
        ).generate_session(0, seed=seed + k)
    return raws


def _cmd_serve_replay(args) -> int:
    from .database.store import MotionDatabase
    from .service.manager import SessionManager

    db = MotionDatabase.load(args.snapshot)
    raws = _live_raws(db, args.live, args.duration, args.seed)
    if raws is None:
        return 2
    if args.workers > 1:
        return _serve_replay_sharded(db, raws, args)

    manager = SessionManager(db, builder=_mode_builder(args.match_mode))
    by_stream = {}
    for patient_id, raw in raws.items():
        session = manager.open_session(patient_id, session_id="SERVE")
        by_stream[session.stream_id] = raw

    times = next(iter(by_stream.values())).times
    n_predictions = {stream_id: 0 for stream_id in by_stream}
    for i in range(len(times)):
        t = float(times[i])
        manager.tick(
            t, {sid: raw.values[i] for sid, raw in by_stream.items()}
        )
        for stream_id in by_stream:
            if manager.predict_ahead(stream_id, args.latency) is not None:
                n_predictions[stream_id] += 1

    for stream_id in by_stream:
        session = manager.session(stream_id)
        print(
            f"{stream_id}: {len(session.ingestor.series)} vertices, "
            f"{n_predictions[stream_id]}/{len(times)} frames predicted "
            f"at {args.latency * 1000:.0f} ms"
        )
    manager.close(keep_streams=False)
    print(
        f"served {len(by_stream)} concurrent sessions over "
        f"{db.n_streams} historical streams"
    )
    return 0


def _serve_replay_sharded(db, raws, args) -> int:
    """The ``--workers N`` serve-replay path: a real multi-process tier.

    Partitions the snapshot into per-shard durable directories under a
    temporary root, spawns the workers, and drives the same tick +
    predict loop through the coordinator.  Results are byte-identical
    to the single-process path by the sharding tier's contract.
    """
    import tempfile

    from .service.sharding import ShardCoordinator, partition_database

    with tempfile.TemporaryDirectory(prefix="repro-shards-") as root:
        partition_database(db, root, args.workers)
        coordinator = ShardCoordinator(
            root, args.workers, builder=_mode_builder(args.match_mode)
        )
        try:
            by_stream = {}
            for patient_id, raw in raws.items():
                stream_id = coordinator.open_session(patient_id, "SERVE")
                by_stream[stream_id] = raw

            times = next(iter(by_stream.values())).times
            n_predictions = {stream_id: 0 for stream_id in by_stream}
            for i in range(len(times)):
                coordinator.tick(
                    float(times[i]),
                    {sid: raw.values[i] for sid, raw in by_stream.items()},
                )
                served = coordinator.predict_ahead_all(args.latency)
                for stream_id in by_stream:
                    if served[stream_id] is not None:
                        n_predictions[stream_id] += 1

            for stream_id in by_stream:
                shard = coordinator.shard_of_stream(stream_id)
                print(
                    f"{stream_id} [shard {shard}]: "
                    f"{coordinator.stream_length(stream_id)} vertices, "
                    f"{n_predictions[stream_id]}/{len(times)} frames "
                    f"predicted at {args.latency * 1000:.0f} ms"
                )
            print(
                f"served {len(by_stream)} concurrent sessions over "
                f"{db.n_streams} historical streams "
                f"across {args.workers} shard workers"
            )
        finally:
            coordinator.close()
    return 0


def _cmd_compact(args) -> int:
    from pathlib import Path

    from .database.backend import LoggedBackend, list_shards, shard_directory
    from .database.index import StateSignatureIndex
    from .database.store import MotionDatabase

    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    shards = list_shards(root)
    if shards:
        targets = [(f"shard {s}", shard_directory(root, s)) for s in shards]
    elif (root / "manifest.json").exists():
        targets = [(str(root), root)]
    else:
        # Opening a LoggedBackend here would silently create an empty
        # database in whatever directory was (mis)typed.
        print(
            f"error: {root} is neither a logged database (no "
            "manifest.json) nor a sharded root (no shard-* directories)",
            file=sys.stderr,
        )
        return 2
    for label, directory in targets:
        db = MotionDatabase(backend=LoggedBackend(directory))
        try:
            index = None
            if not args.no_index:
                index = StateSignatureIndex(db)
            stats = db.compact(index=index)
        finally:
            db.close()
        print(
            f"{label}: snapshot {stats['snapshot_id']}, "
            f"{stats['n_streams']} streams "
            f"({stats['n_index_lengths']} index lengths), "
            f"{stats['segments_rotated']} segments rotated / "
            f"{stats['segments_deleted']} deleted"
        )
    return 0


def _run_analytics(args, min_count: int = 1, max_motifs: int | None = None):
    """One synchronous analytics batch, or ``None`` after a usage error."""
    from pathlib import Path

    from .analytics import AnalyticsRunner

    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return None
    runner = AnalyticsRunner(
        root,
        length=args.length,
        threshold=args.threshold,
        exclusion_zone=args.zone,
        min_count=min_count,
        max_motifs=max_motifs,
    )
    try:
        return runner.run_once()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_motifs(args) -> int:
    import json

    report = _run_analytics(
        args, min_count=args.min_count, max_motifs=args.max_motifs
    )
    if report is None:
        return 2
    if args.json:
        payload = {
            "snapshot_ids": list(report.snapshot_ids),
            "length": report.length,
            "threshold": report.threshold,
            "n_streams": report.n_streams,
            "n_windows": report.n_windows,
            "motifs": [
                {
                    "stream_id": m.stream_id,
                    "start": m.start,
                    "n_vertices": m.n_vertices,
                    "count": m.count,
                    "matches": [list(k) for k in m.matches],
                }
                for m in report.motifs
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{report.n_streams} streams / {report.n_windows} windows of "
        f"length {report.length} (threshold {report.threshold:g})"
    )
    if not report.motifs:
        print("no motifs found")
    for rank, motif in enumerate(report.motifs, start=1):
        print(
            f"  #{rank} {motif.stream_id}[{motif.start}:"
            f"{motif.start + motif.n_vertices}]: {motif.count} matches"
        )
    return 0


def _cmd_anomalies(args) -> int:
    import json

    report = _run_analytics(args)
    if report is None:
        return 2
    anomalies = report.anomalies
    if args.json:
        payload = {
            "snapshot_ids": list(report.snapshot_ids),
            "length": anomalies.length,
            "threshold": anomalies.threshold,
            "n_windows": anomalies.n_windows,
            "n_anomalies": anomalies.n_anomalies,
            "fleet_score": anomalies.fleet_score,
            "streams": [
                {
                    "stream_id": s.stream_id,
                    "n_windows": s.n_windows,
                    "n_anomalies": s.n_anomalies,
                    "score": s.score,
                }
                for s in anomalies.streams
            ],
            "anomalies": [list(k) for k in anomalies.anomalies],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{anomalies.n_anomalies}/{anomalies.n_windows} windows of "
        f"length {anomalies.length} are anomalous (fleet score "
        f"{anomalies.fleet_score:.3f}, threshold {anomalies.threshold:g})"
    )
    for stream_id, start in anomalies.anomalies[: args.top]:
        print(f"  {stream_id}[{start}:{start + anomalies.length}]")
    hidden = anomalies.n_anomalies - args.top
    if hidden > 0:
        print(f"  ... and {hidden} more (see --json)")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from .database.store import MotionDatabase
    from .obs import Telemetry, render_text, snapshot_payload
    from .service.manager import SessionManager
    from .service.wiring import TelemetryRecorder

    db = MotionDatabase.load(args.snapshot)
    raws = _live_raws(db, args.live, args.duration, args.seed)
    if raws is None:
        return 2

    telemetry = Telemetry(snapshot_interval=args.interval)
    manager = SessionManager(
        db, builder=_mode_builder(args.match_mode), telemetry=telemetry
    )
    recorder = TelemetryRecorder(manager.events)
    by_stream = {}
    for patient_id, raw in raws.items():
        session = manager.open_session(patient_id, session_id="METRICS")
        by_stream[session.stream_id] = raw

    times = next(iter(by_stream.values())).times
    last_t = 0.0
    for i in range(len(times)):
        last_t = float(times[i])
        manager.tick(
            last_t, {sid: raw.values[i] for sid, raw in by_stream.items()}
        )
        for stream_id in by_stream:
            manager.predict_ahead(stream_id, args.latency)
    manager.close(keep_streams=False)

    final = telemetry.snapshot(time=last_t)
    if args.json:
        payload = snapshot_payload(final)
        payload["periodic_snapshots"] = len(recorder.snapshots)
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(final))
        print(
            f"# {len(recorder.snapshots)} periodic snapshots published "
            f"on the bus at {args.interval:g}s cadence"
        )
    return 0


def _cmd_cluster(args) -> int:
    from .core.clustering import cluster_members, kmedoids
    from .core.patient_distance import impute_infinite, patient_distance_matrix
    from .database.store import MotionDatabase

    db = MotionDatabase.load(args.snapshot)
    ids, matrix = patient_distance_matrix(db)
    matrix = impute_infinite(matrix)
    result = kmedoids(matrix, k=min(args.k, len(ids)), seed=0)
    for label, members in cluster_members(result.labels, ids).items():
        print(f"cluster {label}: {', '.join(members)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "inspect": _cmd_inspect,
    "replay": _cmd_replay,
    "serve-replay": _cmd_serve_replay,
    "cluster": _cmd_cluster,
    "compact": _cmd_compact,
    "motifs": _cmd_motifs,
    "anomalies": _cmd_anomalies,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
