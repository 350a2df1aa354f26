"""Workload definitions and the seeded input generator.

The generator is the only code that sees ``--seed``.  It synthesises the
historical cohort, writes it out in the form each workload's store is
opened from (a snapshot file, a compacted logged directory or a set of
shard directories) and draws one raw 30 Hz stream per tenant.  The
serving code receives only these files and arrays.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.experiments import CohortConfig, build_cohort
from repro.core.online import OnlineSessionConfig
from repro.core.query import QueryConfig, warped_length_range
from repro.core.similarity import SimilarityParams
from repro.database.backend import LoggedBackend
from repro.database.index import StateSignatureIndex
from repro.database.store import MotionDatabase
from repro.service.sharding import partition_database
from repro.signals.respiratory import RespiratorySimulator, SessionConfig

#: A seed the benchmark was never tuned on.  A gain claimed with the
#: benchmark must also hold with ``--seed HOLDOUT_SEED``.
HOLDOUT_SEED = 90210

#: Look-ahead of every fleet prediction (the gating controller's latency).
LATENCY = 0.2


@dataclass(frozen=True)
class TenantSpec:
    """One live tenant: whose stream it is and how it is matched."""

    patient_index: int
    session_id: str
    mode: str = "rigid"
    warp_band: int = 0

    def config(self) -> OnlineSessionConfig:
        return OnlineSessionConfig(
            similarity=SimilarityParams(
                mode=self.mode, warp_band=self.warp_band
            )
        )


@dataclass(frozen=True)
class Workload:
    """One closed-loop serving workload (``BENCHMARK.json`` says why each).

    ``store`` names how the history is handed to the program:
    ``"snapshot"`` (a ``MotionDatabase.save`` file loaded in memory),
    ``"logged"`` (a compacted ``LoggedBackend`` directory carrying its
    index buffers) or ``"sharded"`` (one logged directory per shard
    worker behind a ``ShardCoordinator``).  The history is generated
    from ``history_seed``, a fixed data set whatever the run's seed
    (the cohort of each seed moved the figures by about a fifth), or
    from the run's seed when that is ``None``; the run's seed draws the
    tenants' streams.  A timed run is split into ``episodes``, each
    measured in a fresh process with streams of its own, so that one
    draw's quirks weigh less; ``rss_mb`` is their mean.  Each episode
    serves ``groups`` tenant groups one after another on its one
    set-up: group ``g`` serves the tenant specs over the ``g``-th block
    of patients.
    ``trace_ticks`` is the measured tick count of each traced pass.
    ``checked_tenants`` are the open-order indices of the tenants
    checked against the oracle (the sharded workload checks the whole
    fleet against a single-process reference instead).
    ``compact_every`` is in stream-seconds.
    """

    name: str
    n_patients: int
    sessions_per_patient: int
    session_duration: float
    tenants: tuple[TenantSpec, ...]
    store: str
    live_duration: float
    episodes: int
    trace_ticks: int
    checked_tenants: tuple[int, ...] = ()
    n_workers: int = 0
    compact_every: float | None = None
    history_seed: int | None = None
    groups: int = 1


def _fleet(n_patients: int, per_patient: int) -> tuple[TenantSpec, ...]:
    return tuple(
        TenantSpec(p, f"T{k:02d}")
        for p in range(n_patients)
        for k in range(per_patient)
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet-rigid",
            n_patients=8,
            sessions_per_patient=3,
            session_duration=120.0,
            tenants=_fleet(8, 8),
            store="snapshot",
            live_duration=300.0,
            episodes=3,
            trace_ticks=1200,
            checked_tenants=(0, 27, 63),
            # The cohort benchmarks/bench_service.py serves.
            history_seed=1,
        ),
        Workload(
            name="modes-large",
            n_patients=40,
            sessions_per_patient=5,
            session_duration=180.0,
            tenants=(
                TenantSpec(0, "T00", "rigid"),
                TenantSpec(1, "T00", "rigid"),
                TenantSpec(2, "T00", "normalized"),
                TenantSpec(3, "T00", "normalized"),
                TenantSpec(4, "T00", "warped", warp_band=1),
                TenantSpec(5, "T00", "warped", warp_band=1),
            ),
            store="logged",
            live_duration=300.0,
            episodes=1,
            trace_ticks=1200,
            checked_tenants=(0, 2, 4),
            history_seed=1,
            groups=5,
        ),
        Workload(
            name="sharded-durable",
            n_patients=24,
            sessions_per_patient=2,
            session_duration=90.0,
            tenants=_fleet(24, 2),
            store="sharded",
            live_duration=300.0,
            episodes=1,
            trace_ticks=1200,
            n_workers=2,
            compact_every=10.0,
        ),
    )
}


#: Workloads defined here but left out of ``BENCHMARK.json``, with why.
#: They still run by hand (``run.py --workload <name>``).
UNLISTED = {
    "sharded-durable": (
        "fleet prediction raises IndexError on some seeds: a series shipped "
        "between shards is adopted lazily (PLRSeries.from_dense), and "
        "PLRSeries.n_segments ignores such a series' columns, so "
        "position_at fails when a match's horizon runs past its packed "
        "tail; only the program can fix it"
    ),
}


@dataclass
class Inputs:
    """Everything the program is handed for one run (see :func:`load`)."""

    workload: Workload
    #: The history as the workload's store opens it.
    source: Path
    #: (patient_id, session_id, config) per tenant, in open order.
    tenants: list[tuple[str, str, OnlineSessionConfig]]
    #: Shared 30 Hz sample clock.
    times: np.ndarray
    #: Raw samples, shape (n_ticks, n_tenants, ndim).
    frames: np.ndarray
    #: Generator facts: tenants, history size and generation wall time.
    meta: dict = field(default_factory=dict)


def primed_lengths(warp_band: int) -> list[int]:
    """Every window length a tenant's query can look up.

    The query generator bounds each query between the strip length and
    ``QueryConfig.max_vertices``; a warped match also looks up every
    length within ``warp_band`` of its query's.  The compacted store
    carries index buffers for all of these, so no serving tick builds a
    length index cold.
    """
    config = QueryConfig()
    return sorted(
        {
            m
            for n in range(config.min_vertices, config.max_vertices + 1)
            for m in warped_length_range(n, warp_band)
        }
    )


def generate(workload: Workload, seed: int, out: Path, episodes: int = 1) -> None:
    """Synthesise a run's inputs: one history, and each episode's groups.

    The history lands in ``out/history`` in the workload's store form.
    Each ``out/episode-e/group-g`` holds ``times.npy`` and ``frames.npy``
    (raw samples per tick and tenant, drawn from the seed) and
    ``meta.json`` (tenants in open order plus facts about the history).
    """
    t0 = time.perf_counter()
    block = 1 + max(spec.patient_index for spec in workload.tenants)
    if workload.groups * block > workload.n_patients:
        raise ValueError(
            f"{workload.groups} groups need more than "
            f"{workload.n_patients} patients"
        )
    history_seed = seed if workload.history_seed is None else workload.history_seed
    cohort = build_cohort(
        CohortConfig(
            n_patients=workload.n_patients,
            sessions_per_patient=workload.sessions_per_patient,
            session_duration=workload.session_duration,
            live_duration=10.0,
            seed=history_seed,
        )
    )
    source = Path("history") / _SOURCES[workload.store]
    (out / source).parent.mkdir(parents=True, exist_ok=True)
    _write_history(cohort.db, out / source, workload)
    session = SessionConfig(duration=workload.live_duration)
    for e in range(episodes):
        for g in range(workload.groups):
            workdir = out / f"episode-{e}" / f"group-{g}"
            workdir.mkdir(parents=True, exist_ok=True)
            stream_seed = (seed * workload.episodes + e) * workload.groups + g
            patients = [
                g * block + spec.patient_index for spec in workload.tenants
            ]
            raws = [
                RespiratorySimulator(
                    cohort.profiles[p], session
                ).generate_session(900 + j, seed=stream_seed * 7907 + 31 * j + 5)
                for j, p in enumerate(patients)
            ]
            np.save(
                workdir / "times.npy", np.asarray(raws[0].times, dtype=float)
            )
            np.save(
                workdir / "frames.npy",
                np.stack([raw.values for raw in raws], axis=1).astype(float),
            )
            meta = {
                "workload": workload.name,
                "seed": stream_seed,
                "history_seed": history_seed,
                "source": str(Path("..", "..") / source),
                "tenants": [
                    [cohort.profiles[p].patient_id, spec.session_id]
                    for p, spec in zip(patients, workload.tenants)
                ],
                "history_vertices": cohort.db.n_vertices,
                "history_streams": cohort.db.n_streams,
                "generate_s": time.perf_counter() - t0,
            }
            (workdir / "meta.json").write_text(json.dumps(meta))


def _write_history(
    history: MotionDatabase, target: Path, workload: Workload
) -> None:
    """Write the history in the form the workload's store opens."""
    if workload.store == "snapshot":
        history.save(target)
    elif workload.store == "logged":
        _write_logged(history, target, workload)
    elif workload.store == "sharded":
        partition_database(history, target, workload.n_workers)
        # The single-process reference serves the same history in memory.
        history.save(target.parent / "history.json")
    else:
        raise ValueError(f"unknown store kind {workload.store!r}")


_SOURCES = {"snapshot": "history.json", "logged": "history.db", "sharded": "shards"}


def load(workload: Workload, workdir: Path) -> Inputs:
    """The generated inputs of ``workdir``, as the serving code gets them."""
    meta = json.loads((workdir / "meta.json").read_text())
    if meta["workload"] != workload.name:
        raise ValueError(f"{workdir} holds inputs of {meta['workload']!r}")
    tenants = [
        (patient_id, session_id, spec.config())
        for (patient_id, session_id), spec in zip(
            meta["tenants"], workload.tenants
        )
    ]
    return Inputs(
        workload=workload,
        source=workdir / meta["source"],
        tenants=tenants,
        times=np.load(workdir / "times.npy"),
        frames=np.ascontiguousarray(np.load(workdir / "frames.npy")),
        meta=meta,
    )


def _write_logged(
    history: MotionDatabase, directory: Path, workload: Workload
) -> None:
    """Copy the history into a logged directory and compact it with the
    signature index caught up at every length the tenants can query."""
    db = MotionDatabase(backend=LoggedBackend(directory))
    for patient in history.iter_patients():
        db.add_patient(patient.patient_id, patient.attributes)
    for record in history.iter_streams():
        db.add_stream(
            patient_id=record.patient_id,
            session_id=record.session_id,
            series=record.series,
            stream_id=record.stream_id,
            metadata=dict(record.metadata),
        )
    index = StateSignatureIndex(db)
    band = max(spec.warp_band for spec in workload.tenants)
    for n in primed_lengths(band):
        index.candidates(np.zeros(n - 1, dtype=np.int8))
    db.compact(index=index)
    db.close()


def fresh_copy(source: Path, workdir: Path, tag: str) -> Path:
    """A private copy of a durable source for one set-up (writes go there)."""
    target = workdir / f"{source.name}-{tag}"
    if target.exists():
        shutil.rmtree(target)
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        shutil.copy2(source, target)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a run's inputs, one directory per episode."
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out, args.episodes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
