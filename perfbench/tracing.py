"""Span recording from outside the program, and the self-time budget.

:func:`install` wraps each layer's public entry points (class methods
and the module-level names the calling layer looks up) with a recorder
that keeps every span in memory: name, start, end, parent span and the
tick index as the request id.  Nothing under ``src/`` changes; the
wrappers are removed again by the function :func:`install` returns.

A span's *self* time is its duration minus the part of its interval
that its direct children cover (:func:`self_times`).  Summed over all
spans of a single-threaded run this equals the time covered by the root
spans, so the per-layer self times add up to the serving wall minus the
harness's own gaps (``unattributed_share``).
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import Callable

import numpy as np


class SpanRecorder:
    """In-memory span store for one single-threaded serving pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self._stack: list[int] = []
        #: Request id stamped on every span opened from now on.
        self.tick = -1
        #: Work counts taken at the same boundaries as the spans.
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ticks.append(self.tick)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def reset(self) -> None:
        """Forget every span and count (call right before the timed loop).

        The name table survives: installed wrappers hold name ids.
        """
        for spans in (
            self.name_ids, self.starts, self.ends, self.parents, self.ticks
        ):
            spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.tick = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=str),
            "name_ids": np.asarray(self.name_ids, dtype=np.int32),
            "starts": np.asarray(self.starts, dtype=float),
            "ends": np.asarray(self.ends, dtype=float),
            "parents": np.asarray(self.parents, dtype=np.int64),
            "ticks": np.asarray(self.ticks, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write every span out (``numpy.savez_compressed``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its direct children.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or overhanging children are never counted
    twice or outside the parent.
    """
    out = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(np.asarray(parents).tolist()):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    for parent, kids in children.items():
        lo, hi = float(starts[parent]), float(ends[parent])
        spans = sorted(
            (max(float(starts[k]), lo), min(float(ends[k]), hi)) for k in kids
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in spans:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[parent] -= covered
    return out


class SpanTable:
    """Per-name aggregates of a recorder's spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        arrays = recorder.arrays()
        self.names = list(recorder.names)
        self.name_ids = arrays["name_ids"]
        self.starts = arrays["starts"]
        self.ends = arrays["ends"]
        self.parents = arrays["parents"]
        self.durations = self.ends - self.starts
        self.selfs = self_times(self.starts, self.ends, self.parents)

    def _mask(self, prefix: str) -> np.ndarray:
        ids = [
            i
            for i, name in enumerate(self.names)
            if name == prefix or name.startswith(prefix + ".")
        ]
        return np.isin(self.name_ids, ids)

    def self_s(self, prefix: str) -> float:
        return float(self.selfs[self._mask(prefix)].sum())

    def incl_s(self, prefix: str) -> float:
        """Inclusive time of the outermost spans under ``prefix``."""
        mask = self._mask(prefix)
        parent_in = np.zeros_like(mask)
        has_parent = self.parents >= 0
        parent_in[has_parent] = mask[self.parents[has_parent]]
        return float(self.durations[mask & ~parent_in].sum())

    def calls(self, prefix: str) -> int:
        return int(self._mask(prefix).sum())

    def total_self_s(self) -> float:
        return float(self.selfs.sum())

    def share_with_child(self, parent: str, child: str) -> float:
        """Share of ``parent`` spans having at least one ``child`` child."""
        parents = np.flatnonzero(self._mask(parent))
        if len(parents) == 0:
            return 0.0
        kids = self._mask(child)
        with_child = np.unique(self.parents[kids])
        return float(np.isin(parents, with_child).mean())


def _wrap(
    recorder: SpanRecorder,
    fn: Callable,
    name: str | Callable[..., str],
    after: Callable | None,
) -> Callable:
    if callable(name):
        name_of = name
        ids: dict[str, int] = {}

        def nid_of(args, kwargs) -> int:
            resolved = name_of(args, kwargs)
            nid = ids.get(resolved)
            if nid is None:
                nid = ids[resolved] = recorder.name_id(resolved)
            return nid

    else:
        fixed = recorder.name_id(name)

        def nid_of(args, kwargs) -> int:
            return fixed

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(nid_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if after is not None:
            after(recorder, args, result)
        return result

    return traced


def _patch(owner, attr: str, recorder, name, after=None) -> Callable[[], None]:
    """Replace ``owner.attr`` with a traced wrapper; returns the undo."""
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(_wrap(recorder, raw.__func__, name, after))
        else:
            new = _wrap(recorder, raw, name, after)
    else:
        raw = getattr(owner, attr)
        new = _wrap(recorder, raw, name, after)
    setattr(owner, attr, new)
    return lambda: setattr(owner, attr, raw)


def _find_mode(args, kwargs) -> str:
    params = kwargs.get("params")
    if params is None and len(args) > 7:
        params = args[7]
    if params is None:
        params = args[0].params
    return f"matching.find.{params.mode.value}"


def _kernel_rows(recorder, args, result) -> None:
    recorder.count("similarity.kernel.rows", len(result))


def _plan_matches(recorder, args, result) -> None:
    if result is not None:
        recorder.count("prediction.plan_matches", result.n_matches)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary the benchmark reports; returns the undo."""
    from repro.core import matching, online
    from repro.core.matching import PartialTopK, SubsequenceMatcher
    from repro.core.online import OnlineAnalysisSession
    from repro.core.prediction import OnlinePredictor
    from repro.core.segmentation import OnlineSegmenter
    from repro.database.index import StateSignatureIndex
    from repro.database.store import MotionDatabase
    from repro.service import sharding
    from repro.service.manager import SessionManager
    from repro.service.sharding import ShardCoordinator

    undo = [
        _patch(SessionManager, "tick", recorder, "manager.tick"),
        _patch(
            SessionManager, "predict_ahead_all", recorder, "manager.predict_all"
        ),
        _patch(OnlineAnalysisSession, "observe", recorder, "online.observe"),
        _patch(OnlineSegmenter, "add_point", recorder, "segmentation.add_point"),
        _patch(online, "generate_query", recorder, "query.generate"),
        _patch(SubsequenceMatcher, "find_matches", recorder, _find_mode),
        _patch(StateSignatureIndex, "candidates", recorder, "index.lookup"),
        _patch(StateSignatureIndex, "coarse_groups", recorder, "index.lookup"),
        _patch(OnlinePredictor, "build_plan", recorder,
               "prediction.build_plan", _plan_matches),
        _patch(MotionDatabase, "commit_vertices", recorder, "store.commit"),
        _patch(ShardCoordinator, "tick", recorder, "sharding.tick"),
        _patch(ShardCoordinator, "predict_ahead_all", recorder,
               "sharding.predict"),
        _patch(ShardCoordinator, "compact", recorder, "store.compact"),
        _patch(PartialTopK, "merge", recorder, "sharding.merge"),
    ]
    for kernel in (
        "batch_distance",
        "batch_distance_normalized",
        "batch_warped_distance",
    ):
        undo.append(
            _patch(matching, kernel, recorder, "similarity.kernel", _kernel_rows)
        )
    for codec in ("encode_value", "decode_value", "decode_event"):
        undo.append(_patch(sharding, codec, recorder, "sharding.codec"))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall
