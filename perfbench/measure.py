"""One measured episode, run in a process of its own by ``run.py``.

The process loads the episode's generated inputs, sets up, serves its
tenant groups one after another, checks the outputs and prints one JSON
object as its last line of standard output.  A fresh process per
episode keeps every episode's memory figure independent of what ran
before it.

    python3 perfbench/measure.py --workload fleet-rigid --inputs DIR \\
        --seconds 5 --trace 0 --rounds 1
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for _path in (str(SRC), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: ``setup_s`` is a median of round means; a round repeats set-ups until
#: it has lasted ``SETUP_ROUND_S`` of wall time.  A shared virtual host
#: can alternate between a fast and a slow state every second or so, and
#: a set-up of a few milliseconds lands in one of them; a round long
#: enough to span several averages them.
SETUP_ROUND_S = 1.0


def _check(
    inputs, deployment, result, reference=None, sampled=None
) -> list[str]:
    """The workload's output check (see :mod:`checks`).

    ``sampled`` narrows the checked tenants to these open-order indices
    (default: the workload's ``checked_tenants``).  A pass in which a
    tick raised is not checked: the fleet it left behind is undefined,
    and the run already counts as failed.
    """
    from checks import check_against_oracle, check_identical
    from serving import final_matches

    if result.errors:
        return [
            f"tick {len(result.digests)} raised (traceback above); "
            "outputs not checked"
        ]
    if reference is not None:
        ref_result, ref_matches = reference
        return check_identical(
            result.digests,
            ref_result.digests,
            final_matches(deployment),
            ref_matches,
        )
    if sampled is None:
        sampled = inputs.workload.checked_tenants
    return check_against_oracle(
        deployment.target, [deployment.stream_ids[k] for k in sampled], result
    )


def _reference(inputs, workdir, n_ticks):
    """The same warm-up and ``n_ticks`` measured ticks of the sharded
    fleet, served by one in-process manager."""
    from serving import final_matches, serve, set_up

    deployment = set_up(inputs, "reference", workdir, single_process=True)
    try:
        result = serve(deployment, inputs, n_ticks=n_ticks)
        return result, final_matches(deployment)
    finally:
        deployment.close()


def run_timed(
    groups, workdir: Path, seconds: float, rounds: int = 2, min_ticks: int = 0
) -> dict:
    """Serve each tenant group for its share of ``seconds``, check, then
    time set-ups.

    ``groups`` are the inputs of the episode's tenant groups, served
    one after another on a single set-up (see :func:`serving.next_group`).
    With more than one, group ``k`` checks only the ``k``-th of the
    checked tenants, in turn.  Memory is read in the first group.  Returns the raw figures that :func:`run.combine` folds
    into the end-to-end metrics.
    """
    from serving import next_group, rss_bytes, serve, set_up

    inputs = groups[0]
    checked = inputs.workload.checked_tenants
    gc.collect()
    baseline = rss_bytes()
    deployment = set_up(inputs, "timed", workdir)
    latencies: list[float] = []
    failures: list[str] = []
    first = None
    try:
        for k, inputs in enumerate(groups):
            if k:
                deployment = next_group(deployment, inputs)
            result = serve(
                deployment,
                inputs,
                seconds=seconds / len(groups),
                min_ticks=-(-min_ticks // len(groups)),
            )
            if first is None:
                first = result
            latencies += result.latencies.tolist()
            reference = None
            if deployment.sharded and not result.errors:
                reference = _reference(inputs, workdir, result.n_ticks)
            sampled = None
            if len(groups) > 1 and checked:
                sampled = [checked[k % len(checked)]]
            failures += _check(inputs, deployment, result, reference, sampled)
            if result.errors:
                break
    finally:
        deployment.close()
    # The serving set-up opens the first round.
    setups = [[deployment.setup_s]]
    round_wall = deployment.setup_s
    while True:
        if round_wall >= SETUP_ROUND_S:
            if len(setups) == rounds:
                break
            setups.append([])
            round_wall = 0.0
        start = time.perf_counter()
        extra = set_up(inputs, "setup", workdir)
        extra.close()
        round_wall += time.perf_counter() - start
        setups[-1].append(extra.setup_s)
    return {
        "failures": failures,
        "latencies": latencies,
        "n_tenants": len(inputs.tenants),
        "setup_round_means": [sum(r) / len(r) for r in setups],
        "setups": sum(len(r) for r in setups),
        "rss_mb": (first.rss - baseline + first.worker_rss) / 2**20,
        "rss_tick": first.rss_tick,
        "compactions": first.compactions,
    }


def run_traced(inputs, workdir: Path, spans_path: Path) -> dict:
    """An untraced and a traced pass over the same ``trace_ticks`` ticks."""
    from report import RegistryDelta, per_layer, percentile_summary
    from serving import serve, set_up
    from tracing import SpanRecorder, SpanTable, install

    n_ticks = inputs.workload.trace_ticks
    failures: list[str] = []

    deployment = set_up(inputs, "untraced", workdir)
    try:
        untraced = serve(deployment, inputs, n_ticks=n_ticks)
    finally:
        deployment.close()
    reference = None
    if deployment.sharded:
        reference = _reference(inputs, workdir, untraced.n_ticks)
    if untraced.errors:
        failures.append("the untraced pass raised (traceback above)")

    recorder = SpanRecorder()
    uninstall = install(recorder)
    try:
        deployment = set_up(inputs, "traced", workdir, traced=True)
        # Counters at the opening of the measured window, so that every
        # count covers the same ticks as the spans.
        opening = []
        traced = serve(
            deployment,
            inputs,
            n_ticks=n_ticks,
            recorder=recorder,
            on_window=lambda: opening.append(deployment.registry()),
        )
    finally:
        uninstall()
    try:
        table = SpanTable(recorder)
        closing = deployment.registry()
        # A pass that raised in its warm-up never opened the window.
        registry = RegistryDelta(closing, opening[0] if opening else closing)
        worker_mode = None
        open_s = deployment.open_s
        if deployment.sharded:
            target = deployment.target
            worker_mode = target.builder.similarity.mode.value
            loads = [
                span["wall_s"]
                for payload in target.worker_snapshots().values()
                if payload is not None
                for span in payload["spans"]
                if span["name"] == "backend.snapshot_load"
            ]
            open_s = max(loads, default=0.0)
        failures += _check(inputs, deployment, traced, reference)
    finally:
        deployment.close()
    if traced.digests != untraced.digests:
        failures.append("traced predictions differ from the untraced pass")
    # Any failure (a tick that raised, or a failed check) fails every tick.
    failed = traced.n_ticks if failures else 0
    metrics = per_layer(
        table,
        recorder.counts,
        registry,
        traced,
        untraced,
        len(inputs.tenants),
        open_s,
        failed,
        worker_mode=worker_mode,
        reference_wall_s=None if reference is None else reference[0].wall_s,
    )
    recorder.write(spans_path)
    return {
        "result": {
            "correct": not failures,
            "attempted": traced.n_ticks,
            "failed": failed,
            "metrics": metrics,
        },
        "failures": failures,
        "provenance": {
            "tick_latency_traced": percentile_summary(traced.latencies),
            "tick_latency_untraced": percentile_summary(untraced.latencies),
            "spans": len(recorder.starts),
            "spans_file": str(spans_path),
        },
    }


def _terminate(signum, frame) -> None:
    """Stop this episode's shard workers, then exit without a result."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
    os._exit(4)


def main(argv=None) -> int:
    from workloads import WORKLOADS, load

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--inputs", type=Path, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--min-ticks", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    groups = [load(WORKLOADS[args.workload], path) for path in args.inputs]
    workdir = args.inputs[0].parent / f"{args.inputs[0].name}-work"
    if args.trace:
        outcome = run_traced(groups[0], workdir, args.spans)
    else:
        outcome = run_timed(
            groups, workdir, args.seconds, args.rounds, args.min_ticks
        )
    outcome["meta"] = [inputs.meta for inputs in groups]
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
