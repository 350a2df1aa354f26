"""Per-tick output digests of a perfbench workload, for byte-identity checks.

Generates the workload's inputs for one seed with perfbench's
``workloads.generate`` in a temporary directory, sets up with
``serving.set_up`` (untraced) and serves each tenant group in turn: the
``serving.WARMUP_TICKS`` warm-up ticks plus ``--ticks`` more, calling
``serving.next_group`` between groups.  It prints one JSON line holding,
per group,

* ``predictions``: a SHA-256 over the per-tick digests ``serving.serve``
  records (each a BLAKE2b over every tenant's prediction bytes in that
  tick), and
* ``matches``: a SHA-256 over every tenant's final match list, in open
  order (stream, start, length, distance as a float hex, relation).

Two checkouts that print the same line served byte-identical
predictions on every tick and ended with the same match sets.  Run it
from the root of each checkout (it finds ``src/`` and ``perfbench/``
itself) and compare the lines::

    python3 benchmarks/tick_digests.py --workload modes-large --seed 1 --ticks 1200
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import serving  # noqa: E402
import workloads  # noqa: E402


def match_digest(matches: dict, stream_ids: list[str]) -> str:
    """SHA-256 over every tenant's final match list, in open order."""
    h = hashlib.sha256()
    for sid in stream_ids:
        rows = [
            [m.stream_id, m.start, m.n_vertices, float(m.distance).hex(),
             m.relation.name]
            for m in matches[sid]
        ]
        h.update(json.dumps([sid, rows]).encode())
    return h.hexdigest()


def group_digests(workload, seed: int, ticks: int, workdir: Path) -> list[dict]:
    """Serve every group of one generated episode; digests per group."""
    workloads.generate(workload, seed, workdir, episodes=1)
    groups = [
        workloads.load(workload, workdir / "episode-0" / f"group-{g}")
        for g in range(workload.groups)
    ]
    digests = []
    deployment = serving.set_up(groups[0], "digests", workdir)
    try:
        for k, inputs in enumerate(groups):
            if k:
                deployment = serving.next_group(deployment, inputs)
            result = serving.serve(deployment, inputs, n_ticks=ticks)
            if result.errors:
                raise SystemExit(f"error: group {k} raised (traceback above)")
            digests.append(
                {
                    "ticks": len(result.digests),
                    "predictions": hashlib.sha256(
                        b"".join(result.digests)
                    ).hexdigest(),
                    "matches": match_digest(
                        serving.final_matches(deployment),
                        deployment.stream_ids,
                    ),
                }
            )
    finally:
        deployment.close()
    return digests


def main(argv=None) -> int:
    listed = [w for w in workloads.WORKLOADS if w not in workloads.UNLISTED]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=listed)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--ticks", type=int, required=True,
        help="ticks served per group after the warm-up",
    )
    args = parser.parse_args(argv)
    if args.ticks < 0:
        parser.error("--ticks must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="tick-digests-") as tmp:
        groups = group_digests(workload, args.seed, args.ticks, Path(tmp))
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "ticks": args.ticks,
                "groups": groups,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
