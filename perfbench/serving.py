"""Set-up and the closed serving loop, single-process and sharded.

One client plays the 30 Hz acquisition clock: tick *i+1* is sent only
when tick *i*'s fleet predictions have returned.  A tick is ``tick()``
over every tenant's sample followed by one ``predict_ahead_all``; on the
sharded workload a due ``compact()`` runs first and counts in the tick
it delays.  Tick latency runs from the send to the returned
predictions, and the serving wall is the sum of tick latencies, so the
client's own bookkeeping between ticks is not charged to the program.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.online import OnlineSessionConfig
from repro.database.backend import LoggedBackend
from repro.database.store import MotionDatabase
from repro.obs import Telemetry
from repro.service.builder import PipelineBuilder
from repro.service.manager import SessionManager
from repro.service.sharding import ShardCoordinator

from workloads import LATENCY, Inputs, fresh_copy

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes(pid: int | str = "self") -> int:
    """Resident set size of one process, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def written_bytes(pid: int | str = "self") -> int:
    """Bytes a process has passed to ``write()`` (``wchar``; not sockets)."""
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def worker_pids() -> list[int]:
    """Live shard-worker processes spawned by this process."""
    return sorted(
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    )


@dataclass
class Deployment:
    """A set-up serving target plus how long the set-up took."""

    target: object
    stream_ids: list[str]
    setup_s: float
    open_s: float
    telemetry: Telemetry | None = None

    @property
    def sharded(self) -> bool:
        return isinstance(self.target, ShardCoordinator)

    def registry(self):
        """The program's telemetry so far (workers' folded in, if sharded)."""
        merged = self.telemetry.snapshot().merged
        if self.sharded:
            return self.target.fleet_registry().merge(merged)
        return merged

    def close(self) -> None:
        target = self.target
        if isinstance(target, ShardCoordinator):
            target.close()
        else:
            target.close(keep_streams=True)


def materialise_series(database: MotionDatabase) -> None:
    """Expand every lazily reopened series into its vertex lists.

    A workaround for a program defect, not part of the workload:
    ``PLRSeries.n_segments`` counts only materialised vertices, so on a
    series adopted with ``PLRSeries.from_dense`` (every series of a
    reopened compacted store) ``position_at`` raises ``IndexError`` for
    a time inside the series, and fleet prediction raises whenever a
    match's horizon runs past its packed tail.  ``vertex()`` materialises
    the series.  Drop this call once the defect is fixed; the self-test
    ``test_reopened_series_answers_position_at`` reports that.
    """
    for record in database.iter_streams():
        if len(record.series):
            record.series.vertex(0)


def set_up(
    inputs: Inputs,
    tag: str,
    workdir: Path,
    traced: bool = False,
    single_process: bool = False,
) -> Deployment:
    """Open the store, build the serving target and open every session.

    Durable sources are copied first (untimed) so every set-up starts
    from the generator's bytes.  ``single_process`` serves a sharded
    workload's fleet from one in-memory manager (the reference).
    """
    workload = inputs.workload
    gc.collect()
    telemetry = Telemetry() if traced else None
    # Default OnlineSessionConfig; tenants override only the match mode.
    builder = PipelineBuilder.from_session_config(OnlineSessionConfig())
    if workload.store == "sharded" and not single_process:
        root = fresh_copy(inputs.source, workdir, tag)
        t0 = time.perf_counter()
        coordinator = ShardCoordinator(
            root,
            workload.n_workers,
            builder=builder,
            telemetry=telemetry,
            worker_telemetry=traced,
        )
        open_s = time.perf_counter() - t0
        sids = [
            coordinator.open_session(patient_id, session_id)
            for patient_id, session_id, _ in inputs.tenants
        ]
        return Deployment(
            coordinator, sids, time.perf_counter() - t0, open_s, telemetry
        )
    t0 = time.perf_counter()
    if workload.store == "logged":
        directory = fresh_copy(inputs.source, workdir, tag)
        t0 = time.perf_counter()
        database = MotionDatabase(backend=LoggedBackend(directory))
        materialise_series(database)
    elif workload.store == "sharded":
        database = MotionDatabase.load(inputs.source.parent / "history.json")
    else:
        database = MotionDatabase.load(inputs.source)
    open_s = time.perf_counter() - t0
    manager = SessionManager(database, builder=builder, telemetry=telemetry)
    sids = [
        manager.open_session(patient_id, session_id, config=config).stream_id
        for patient_id, session_id, config in inputs.tenants
    ]
    return Deployment(
        manager, sids, time.perf_counter() - t0, open_s, telemetry
    )


def next_group(deployment: Deployment, inputs: Inputs) -> Deployment:
    """Close the deployment's sessions and open ``inputs``' tenants instead.

    The closed streams stay in the store, as history; the manager, its
    matcher and the restored index are reused, so no set-up is repeated.
    """
    manager = deployment.target
    for sid in deployment.stream_ids:
        manager.close_session(sid, keep_stream=True)
    sids = [
        manager.open_session(patient_id, session_id, config=config).stream_id
        for patient_id, session_id, config in inputs.tenants
    ]
    return Deployment(
        manager,
        sids,
        deployment.setup_s,
        deployment.open_s,
        deployment.telemetry,
    )


#: Ticks every pass serves before its measured window opens (20
#: stream-seconds).  No tenant has a query before its tenth vertex,
#: about 13 s in, so these ticks cost a fraction of a steady one and
#: would otherwise move the percentiles with the length of the window.
WARMUP_TICKS = 600

#: A timed pass that has measured fewer ticks than its ``min_ticks`` when
#: its ``seconds`` run out goes on, up to this multiple of ``seconds``,
#: so that tick p99 keeps ten samples beyond it on a slow host.
OVERRUN = 1.5


@dataclass
class ServeResult:
    """What one serving pass measured and produced.

    Latencies and counts cover the measured window; ``digests`` cover
    every tick, warm-up included.
    """

    latencies: np.ndarray
    served: int
    errors: int
    #: One digest of every tenant's prediction bytes per tick.
    digests: list[bytes]
    last_time: float
    last_predictions: dict
    committed_vertices: int = 0
    compactions: int = 0
    #: File bytes written by this process and its workers while measured.
    written_bytes: int = 0
    #: This process's RSS and the workers' summed RSS, read after
    #: ``rss_tick`` ticks.
    rss: int = 0
    worker_rss: int = 0
    rss_tick: int = 0
    worker_cpu_s: list[float] = field(default_factory=list)

    @property
    def n_ticks(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        return float(self.latencies.sum())


def digest_predictions(predictions: dict, stream_ids: list[str]) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for sid in stream_ids:
        position = predictions.get(sid)
        h.update(b"-" if position is None else np.asarray(position).tobytes())
    return h.digest()


def serve(
    deployment: Deployment,
    inputs: Inputs,
    seconds: float | None = None,
    n_ticks: int | None = None,
    recorder=None,
    on_window=None,
    min_ticks: int = 0,
) -> ServeResult:
    """Serve ``WARMUP_TICKS`` ticks, then measure ``seconds`` or ``n_ticks`` ticks.

    A timed pass stops at the first tick ending after ``seconds``, or
    later if it has measured fewer than ``min_ticks`` (see ``OVERRUN``).
    Memory is read once it has measured ``min_ticks``, a point of the
    stream it reaches whatever the host's speed.

    When the measured window opens, ``on_window`` (if given) is called
    and the recorder (if any) is reset.  A
    tick that raises ends the pass; its latency is recorded even in the
    warm-up, so a failed pass always reports at least one tick.
    """
    target = deployment.target
    sids = deployment.stream_ids
    times = inputs.times
    frames = inputs.frames
    total = len(times) if n_ticks is None else min(WARMUP_TICKS + n_ticks, len(times))
    compact_every = (
        inputs.workload.compact_every if deployment.sharded else None
    )
    next_compact = (
        float(times[0]) + compact_every if compact_every else float("inf")
    )
    pids = worker_pids() if deployment.sharded else []
    cpu0: list[float] = []
    written0 = 0
    latencies: list[float] = []
    digests: list[bytes] = []
    served = errors = committed_total = compactions = 0
    predictions: dict = {}
    memory: tuple[int, int, int] | None = None
    rss_tick = WARMUP_TICKS + min_ticks
    t = float(times[0])
    deadline = cutoff = float("inf")
    i = 0
    while i < total:
        if i == WARMUP_TICKS:
            if on_window is not None:
                on_window()
            if recorder is not None:
                recorder.reset()
            cpu0 = [cpu_seconds(pid) for pid in pids]
            written0 = _written(pids)
            if seconds is not None:
                deadline = time.perf_counter() + seconds
                cutoff = deadline + (OVERRUN - 1.0) * seconds
        t = float(times[i])
        frame = dict(zip(sids, frames[i]))
        if recorder is not None:
            recorder.tick = i
        start = time.perf_counter()
        try:
            if t >= next_compact:
                target.compact()
                compactions += 1
                next_compact += compact_every
            committed = target.tick(t, frame)
            predictions = target.predict_ahead_all(LATENCY)
        except Exception:
            # A tick that raised leaves the fleet in an undefined state
            # (a sharded exchange may even leave replies unread), so the
            # pass stops here and the run counts as failed.
            traceback.print_exc(file=sys.stderr)
            errors += 1
            latencies.append(time.perf_counter() - start)
            i += 1
            break
        end = time.perf_counter()
        digests.append(digest_predictions(predictions, sids))
        if i >= WARMUP_TICKS:
            latencies.append(end - start)
            for value in committed.values():
                committed_total += (
                    value if isinstance(value, int) else len(value)
                )
            for position in predictions.values():
                if position is not None:
                    served += 1
        i += 1
        if i == rss_tick:
            memory = _memory(pids, i)
        if end >= deadline and (len(latencies) >= min_ticks or end >= cutoff):
            break
    if recorder is not None:
        recorder.tick = -1
    result = ServeResult(
        latencies=np.asarray(latencies),
        served=served,
        errors=errors,
        digests=digests,
        last_time=t,
        last_predictions=predictions,
        committed_vertices=committed_total,
        compactions=compactions,
    )
    if i > WARMUP_TICKS:
        result.written_bytes = _written(pids) - written0
        result.worker_cpu_s = [
            cpu_seconds(pid) - c0 for pid, c0 in zip(pids, cpu0)
        ]
    result.rss, result.worker_rss, result.rss_tick = memory or _memory(pids, i)
    return result


def _memory(pids: list[int], tick: int) -> tuple[int, int, int]:
    gc.collect()
    return rss_bytes(), sum(rss_bytes(pid) for pid in pids), tick


def _written(pids: list[int]) -> int:
    """File bytes written so far by this process and the given workers."""
    return written_bytes() + sum(written_bytes(pid) for pid in pids)


def final_matches(deployment: Deployment) -> dict[str, list]:
    target = deployment.target
    if deployment.sharded:
        return {sid: target.matches_of(sid) for sid in deployment.stream_ids}
    return {
        sid: target.session(sid).matches for sid in deployment.stream_ids
    }
