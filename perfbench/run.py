"""Closed-loop serving benchmark with a per-layer time budget.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-rigid --seed 1 --seconds 10 --trace 0

``--trace 0`` serves for ``--seconds`` with no wrappers and prints the
end-to-end metrics.  ``--trace 1`` serves a fixed number of ticks twice,
untraced and then with every layer boundary wrapped (plus the program's
own telemetry counters), and prints the per-layer metrics.  Either way
the outputs are checked against the frozen oracles (single-process
workloads) or byte-for-byte against one in-process ``SessionManager``
(sharded workload), and the last line of standard output is one JSON
object: ``correct``, ``attempted`` (ticks), ``failed`` (ticks) and
``metrics``.  A provenance record is printed before it.

A timed run is split into the workload's episodes.  ``workloads.py``
generates the history and every episode's inputs from the seed in one
child process, and ``measure.py`` measures each episode (its tenant
groups, one after another) in a fresh child process of its own; this
script only orchestrates them and folds their figures together.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: A run that has not finished by then (a hung worker, say) is stopped:
#: its child processes are terminated and it exits with status 4, as it
#: does on SIGTERM.
WATCHDOG_S = 170

#: Set-up rounds per timed run, shared out over its episodes (at least
#: one each).  A round lasts at least ``measure.SETUP_ROUND_S``, so a
#: workload whose one set-up takes seconds still repeats it.
SETUP_ROUNDS = 2

#: Measured ticks a timed run aims for, shared out over its episodes:
#: tick p99 needs ten samples beyond it.
MIN_TICKS = 1000


def host_record(seed: int) -> dict:
    """Host and provenance facts printed with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def combine(episodes: list[dict]) -> tuple[dict, dict]:
    """Fold episode figures into the end-to-end metrics.

    Frames per second is total frames over total serving wall; the tick
    percentiles pool every episode's ticks; ``setup_s`` is the median of
    all set-up round means; ``rss_mb`` is the mean over episodes, each
    of which sets up in a fresh process.
    """
    from report import END_TO_END, percentile_summary, with_units

    latencies = np.concatenate([np.asarray(e["latencies"]) for e in episodes])
    frames = sum(len(e["latencies"]) * e["n_tenants"] for e in episodes)
    pct = percentile_summary(latencies)
    rounds = [m for e in episodes for m in e["setup_round_means"]]
    values = {
        "frames_per_s": frames / float(latencies.sum()),
        "tick_p50_ms": pct["p50_s"] * 1e3,
        "tick_p99_ms": pct["p99_s"] * 1e3,
        "setup_s": statistics.median(rounds),
        "rss_mb": statistics.fmean(e["rss_mb"] for e in episodes),
    }
    provenance = {
        "tick_latency": pct,
        "setup_round_means": rounds,
        "setups": sum(e["setups"] for e in episodes),
        "rss_mb_each": [e["rss_mb"] for e in episodes],
        "rss_tick_each": [e["rss_tick"] for e in episodes],
        "compactions": sum(e["compactions"] for e in episodes),
    }
    return with_units(values, END_TO_END), provenance


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child(command: list[str], children: list, capture: bool) -> str:
    """Run one child process to completion; its stdout if ``capture``."""
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    children.append(proc)
    out, _ = proc.communicate()
    children.remove(proc)
    if proc.returncode:
        raise SystemExit(
            f"error: {Path(command[1]).name} exited with {proc.returncode}"
        )
    return out or ""


def _stop(children: list, workdir: Path, signum, frame) -> None:
    """On the watchdog alarm or SIGTERM: stop every child, exit 4."""
    if signum == signal.SIGALRM:
        reason = f"exceeded {WATCHDOG_S} s"
    else:
        reason = "was terminated"
    print(f"error: run {reason}; stopping its processes", file=sys.stderr)
    for proc in children:
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    shutil.rmtree(workdir, ignore_errors=True)
    os._exit(4)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    host = host_record(args.seed)
    usable = len(host["affinity"])
    if workload.n_workers and usable < workload.n_workers:
        print(
            json.dumps(
                {
                    "workload": workload.name,
                    "skipped": True,
                    "reason": (
                        f"host exposes {usable} usable CPU(s) for "
                        f"{workload.n_workers} shard workers; a run here "
                        "would measure core timesharing, not the tier"
                    ),
                    "host": host,
                }
            )
        )
        return 3

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    children: list = []
    stop = functools.partial(_stop, children, workdir)
    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(WATCHDOG_S)
    episodes = 1 if args.trace else workload.episodes
    spans = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.npz"
    outcomes = []
    try:
        _child(
            [
                sys.executable, str(BENCH / "workloads.py"),
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--episodes", str(episodes),
                "--out", str(workdir),
            ],
            children,
            capture=False,
        )
        for e in range(episodes):
            groups = [
                str(workdir / f"episode-{e}" / f"group-{g}")
                for g in range(workload.groups)
            ]
            out = _child(
                [
                    sys.executable, str(BENCH / "measure.py"),
                    "--workload", workload.name,
                    "--inputs", *groups,
                    "--seconds", str(args.seconds / episodes),
                    "--trace", str(args.trace),
                    "--rounds", str(max(1, SETUP_ROUNDS // episodes)),
                    "--min-ticks", str(-(-MIN_TICKS // episodes)),
                    "--spans", str(spans),
                ],
                children,
                capture=True,
            )
            outcomes.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for o in outcomes for f in o["failures"]]
    if args.trace:
        result = outcomes[0]["result"]
        provenance = outcomes[0]["provenance"]
    else:
        metrics, provenance = combine(outcomes)
        attempted = sum(len(o["latencies"]) for o in outcomes)
        # Any failure in any episode (a tick that raised, or a failed
        # check) fails every tick of the run.
        failed = attempted if failures else 0
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        provenance["tick_error_rate"] = failed / attempted
    meta = [m for o in outcomes for m in o["meta"]]
    provenance.update(host)
    provenance.update(
        workload=workload.name,
        trace=args.trace,
        episodes=len(outcomes),
        stream_seeds=[m["seed"] for m in meta],
        history_seed=meta[0]["history_seed"],
        n_tenants=len(meta[0]["tenants"]),
        history_vertices=meta[0]["history_vertices"],
        history_streams=meta[0]["history_streams"],
        generate_s=meta[-1]["generate_s"],
    )
    print(json.dumps({"provenance": provenance}))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
