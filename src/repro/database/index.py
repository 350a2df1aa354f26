"""Columnar state-signature index for candidate retrieval.

Definition 2 only compares subsequences with *identical* state sequences,
so the natural access path is an inverted index from the state signature
(the sequence of segment states) to every window of the database that
carries it.  The paper lists indexing as future work and scans linearly;
this index is the reproduction's realisation of that extension and is
ablated against the linear scan in ``benchmarks/bench_ablations.py``.

The engine is **columnar and vectorised** end to end:

* Window extraction uses ``numpy.lib.stride_tricks.sliding_window_view``
  — all windows of a length are materialised as strided views in one
  shot, never via a per-window Python loop.
* Signatures are **radix-encoded** into one integer key at every window
  length (base-``N_STATES`` positional encoding, the KV-match-style
  order-preserving window code).  Up to ``MAX_RADIX_SEGMENTS`` segments
  the keys are computed as packed ``int64``; longer windows get the same
  base-``N_STATES`` integer as a Python int, assembled from int64 chunks.
* Posting lists are **growable contiguous arrays** with
  amortised-doubling capacity, so appends are O(1) amortised and
  ``stacked()`` is a zero-copy slice of the live buffers rather than a
  re-``vstack``.  Stream ids are interned to small integer codes, and a
  :class:`CandidateSet` hands out the codes with the intern table.

The index remains **lazy and incremental**: windows of a given length are
indexed the first time a query of that length arrives, and each lookup
first catches up with vertices appended since the previous lookup — which
is exactly the online-streaming pattern (the live session's series keeps
growing during treatment).  Stream *removal* is detected through the
database's ``removal_epoch`` counter, so the common append-only path pays
nothing for the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .store import MotionDatabase

__all__ = [
    "CandidateSet",
    "StateSignatureIndex",
    "N_STATES",
    "MAX_RADIX_SEGMENTS",
    "encode_signature",
    "decode_signature",
    "collapse_signature",
    "buffer_posting_groups",
    "series_posting_groups",
]

#: Cardinality of the state alphabet (EX, EOE, IN, IRR).
N_STATES = 4

#: Longest signature (in segments) whose key fits an int64:
#: ``4 ** 31 < 2 ** 63``.  Longer signatures get Python-int keys, built
#: from int64 chunks of this many states.
MAX_RADIX_SEGMENTS = 31


#: Catch-up batches at or below this many windows skip the vectorised
#: batch machinery for direct scalar appends (see ``catch_up_all``).
_SMALL_CATCH_UP = 8


def _radix(n_segments: int) -> np.ndarray:
    """Positional radix vector ``[1, b, b^2, ...]`` for int64 key packing
    (valid up to :data:`MAX_RADIX_SEGMENTS` segments)."""
    return N_STATES ** np.arange(n_segments, dtype=np.int64)


_radix_int_cache: dict[int, list[int]] = {}


def _radix_ints(n_segments: int) -> list[int]:
    """The radix vector as cached Python ints (the scalar packing path),
    exact at every length."""
    radix = _radix_int_cache.get(n_segments)
    if radix is None:
        radix = _radix_int_cache[n_segments] = [
            N_STATES**i for i in range(n_segments)
        ]
    return radix


def encode_signature(signature) -> int:
    """Pack a state signature into its index key.

    State ``i`` contributes ``state * N_STATES ** i``, at every length;
    the encoding is injective within one length, so key equality is
    exactly signature equality.

    Parameters
    ----------
    signature:
        Sequence of segment states (tuple, list or ndarray).
    """
    states = np.asarray(signature, dtype=np.int8)
    return int(_window_keys(states.reshape(1, -1))[0])


def decode_signature(key: int, n_segments: int) -> tuple[int, ...]:
    """Invert :func:`encode_signature` back to the state tuple."""
    states = []
    for _ in range(n_segments):
        states.append(int(key % N_STATES))
        key //= N_STATES
    return tuple(states)


def collapse_signature(signature) -> tuple[int, ...]:
    """Run-length-collapse a state signature (drop repeated neighbours).

    ``(IN, IN, EX, EX, EX, EOE)`` collapses to ``(IN, EX, EOE)``.  This
    is the index's **coarse** granularity: a banded segment alignment
    with zero state mismatches exists between two windows *only if*
    their collapsed signatures are equal (every monotone alignment path
    visits both sequences' state runs in order), so grouping fine
    postings by collapsed signature is a complete — never lossy —
    candidate generator for the warped match mode.
    """
    states = np.asarray(signature, dtype=np.int8)
    if states.size == 0:
        return ()
    keep = np.r_[True, states[1:] != states[:-1]]
    return tuple(int(s) for s in states[keep])


def _window_keys(windows: np.ndarray) -> np.ndarray:
    """Keys for a ``(n_windows, n_segments)`` matrix of segment states.

    An int64 array up to :data:`MAX_RADIX_SEGMENTS` segments.  Past that
    the keys overflow int64, so they are Python ints in an object array:
    each chunk of :data:`MAX_RADIX_SEGMENTS` states is packed as int64
    and shifted left to its first state's weight (state ``i`` weighs
    ``4 ** i == 2 ** (2 * i)``).  Both kinds sort and compare
    elementwise alike.
    """
    n_segments = windows.shape[1]
    if n_segments <= MAX_RADIX_SEGMENTS:
        return windows.astype(np.int64, copy=False) @ _radix(n_segments)
    keys = np.zeros(len(windows), dtype=object)
    for lo in range(0, n_segments, MAX_RADIX_SEGMENTS):
        chunk = windows[:, lo : lo + MAX_RADIX_SEGMENTS]
        packed = chunk.astype(np.int64) @ _radix(chunk.shape[1])
        keys += packed.astype(object) << (2 * lo)
    return keys


@dataclass(frozen=True)
class CandidateSet:
    """All indexed windows sharing one state signature.

    Attributes
    ----------
    codes, names:
        The owning stream of window ``i`` is ``names[codes[i]]``:
        ``names`` is an intern table (object array of str, one entry per
        stream) and ``codes`` indexes it per window.  Consumers do
        per-stream work (provenance, filters, ranking keys) once per
        unique stream and expand it by integer fancy-indexing instead of
        paying Python-level string work per candidate.
    starts:
        Window start vertex per window.
    amplitudes, durations:
        Feature matrices, shape ``(n_windows, n_segments)``.
    """

    codes: np.ndarray
    names: np.ndarray
    starts: np.ndarray
    amplitudes: np.ndarray
    durations: np.ndarray

    @property
    def n_candidates(self) -> int:
        """Number of windows in the set."""
        return len(self.starts)

    @property
    def stream_ids(self) -> np.ndarray:
        """Owning stream per window (object array of str)."""
        return self.names[self.codes]

    def select(self, mask: np.ndarray) -> "CandidateSet":
        """The subset of windows where ``mask`` is true."""
        return CandidateSet(
            codes=self.codes[mask],
            names=self.names,
            starts=self.starts[mask],
            amplitudes=self.amplitudes[mask],
            durations=self.durations[mask],
        )


class _ColumnarPostings:
    """One signature's windows in contiguous amortised-doubling buffers.

    Appends write into preallocated capacity (doubling on overflow, so n
    appends cost O(n) amortised); ``stacked()`` slices the live prefix of
    each buffer — zero copies for the numeric columns.  Stream ids are
    stored as int32 codes into the owning :class:`_LengthIndex`'s intern
    table.
    """

    __slots__ = (
        "n_segments",
        "n",
        "_capacity",
        "_stream_codes",
        "_starts",
        "_amplitudes",
        "_durations",
        "_stacked",
    )

    def __init__(self, n_segments: int) -> None:
        self.n_segments = n_segments
        self.n = 0
        self._capacity = 0
        self._stream_codes = np.empty(0, dtype=np.int32)
        self._starts = np.empty(0, dtype=np.int64)
        self._amplitudes = np.empty((0, n_segments), dtype=float)
        self._durations = np.empty((0, n_segments), dtype=float)
        self._stacked: CandidateSet | None = None

    def _reserve(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = max(4, self._capacity)
        while capacity < needed:
            capacity *= 2
        stream_codes = np.empty(capacity, dtype=np.int32)
        stream_codes[: self.n] = self._stream_codes[: self.n]
        self._stream_codes = stream_codes
        starts = np.empty(capacity, dtype=np.int64)
        starts[: self.n] = self._starts[: self.n]
        self._starts = starts
        amplitudes = np.empty((capacity, self.n_segments), dtype=float)
        amplitudes[: self.n] = self._amplitudes[: self.n]
        self._amplitudes = amplitudes
        durations = np.empty((capacity, self.n_segments), dtype=float)
        durations[: self.n] = self._durations[: self.n]
        self._durations = durations
        self._capacity = capacity

    def extend(
        self,
        stream_codes: np.ndarray | int,
        starts: np.ndarray,
        amplitudes: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Bulk-append windows (``stream_codes`` broadcasts per row)."""
        k = len(starts)
        if k == 0:
            return
        self._reserve(self.n + k)
        block = slice(self.n, self.n + k)
        self._stream_codes[block] = stream_codes
        self._starts[block] = starts
        self._amplitudes[block] = amplitudes
        self._durations[block] = durations
        self.n += k
        self._stacked = None

    def append_one(
        self,
        stream_code: int,
        start: int,
        amplitudes: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Append a single window (the tiny-batch catch-up path)."""
        n = self.n
        self._reserve(n + 1)
        self._stream_codes[n] = stream_code
        self._starts[n] = start
        self._amplitudes[n] = amplitudes
        self._durations[n] = durations
        self.n = n + 1
        self._stacked = None

    def adopt(
        self,
        stream_codes: np.ndarray,
        starts: np.ndarray,
        amplitudes: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Take ownership of prebuilt column slices (the mmap-import path).

        The arrays may be read-only views of memory-mapped snapshot
        buffers: capacity is pinned to the current length, so the first
        post-import append triggers a :meth:`_reserve` copy into fresh
        writable buffers while lookups keep serving zero-copy slices of
        the maps.
        """
        n = len(starts)
        self._stream_codes = stream_codes
        self._starts = starts
        self._amplitudes = amplitudes
        self._durations = durations
        self.n = n
        self._capacity = n
        self._stacked = None

    def stacked(self, stream_names: np.ndarray) -> CandidateSet:
        """The posting list as a :class:`CandidateSet` (cached).

        ``stream_names`` is the owning length index's intern table as an
        object array; the columns are zero-copy views of the live buffer
        prefix.
        """
        if self._stacked is None:
            self._stacked = CandidateSet(
                codes=self._stream_codes[: self.n],
                names=stream_names,
                starts=self._starts[: self.n],
                amplitudes=self._amplitudes[: self.n],
                durations=self._durations[: self.n],
            )
        return self._stacked


class _LengthIndex:
    """Postings for all windows of one vertex count."""

    def __init__(self, n_vertices: int) -> None:
        self.n_vertices = n_vertices
        self.postings: dict[int, _ColumnarPostings] = {}
        #: Collapsed signature -> fine posting keys carrying it (the
        #: coarse granularity; see :func:`collapse_signature`).  Filled
        #: as postings are created, in both the live catch-up path and
        #: the snapshot restore path.
        self.coarse: dict[tuple[int, ...], list[int]] = {}
        self._next_start: dict[str, int] = {}
        self._stream_names: list[str] = []
        self._stream_codes: dict[str, int] = {}

    @property
    def indexed_streams(self) -> tuple[str, ...]:
        """Streams this length index has seen."""
        return tuple(self._next_start)

    @property
    def n_windows(self) -> int:
        """Total windows indexed at this length."""
        return sum(p.n for p in self.postings.values())

    def _code(self, stream_id: str) -> int:
        code = self._stream_codes.get(stream_id)
        if code is None:
            code = len(self._stream_names)
            self._stream_codes[stream_id] = code
            self._stream_names.append(stream_id)
        return code

    def stream_names(self) -> np.ndarray:
        """The intern table as an object array (for fancy expansion)."""
        return np.asarray(self._stream_names, dtype=object)

    def catch_up_all(self, records, injector=None) -> int:
        """Index every window appended to any stream since the last call.

        Returns the number of windows added by this batch (telemetry's
        catch-up batch-size metric — free to compute either way).

        All streams' new regions are spliced into **one** concatenated
        buffer per column (with ``n_segments - 1`` sentinel slots between
        streams so no window straddles a boundary), all signatures are
        radix-encoded at once over one ``sliding_window_view`` (one
        matmul per 31 states, see :func:`_window_keys`), the valid window
        rows are selected arithmetically (no scanning), and one stable
        argsort groups them for one bulk ``extend`` per distinct
        signature.  A naive per-stream loop pays numpy dispatch
        per (stream, signature) pair, which is what dominated build time
        at fleet scale.
        """
        m = self.n_vertices
        n_segments = m - 1
        # (stream_id, series, first new window, last new window) per
        # stream with anything to index.
        pending = []
        total = 0
        for record in records:
            if injector is not None:
                injector.fire("index.catch_up")
            series = record.series
            last = len(series) - m
            start = self._next_start.get(record.stream_id, 0)
            if last < start:
                continue
            pending.append((record.stream_id, series, start, last))
            total += last - start + 1
        if not pending:
            return 0
        if total <= _SMALL_CATCH_UP:
            # Steady-state serving: each live commit adds a handful of
            # windows, and the batch machinery's fixed numpy dispatch
            # cost (concatenates, the strided matmul, the argsort)
            # dwarfs the actual work at that size.  Pack each key with
            # Python-int radix arithmetic and append rows directly.
            radix = _radix_ints(n_segments)
            for stream_id, series, start, last in pending:
                states = series.states
                amplitudes = series.amplitudes
                durations = series.durations
                code = self._code(stream_id)
                for s in range(start, last + 1):
                    key = 0
                    for j, r in enumerate(radix):
                        key += int(states[s + j]) * r
                    self._posting(key, n_segments).append_one(
                        code,
                        s,
                        amplitudes[s : s + n_segments],
                        durations[s : s + n_segments],
                    )
                self._next_start[stream_id] = last + 1
            return total
        sep = max(n_segments - 1, 0)
        sep_states = np.full(sep, -1, dtype=np.int8)
        sep_feats = np.zeros(sep, dtype=float)
        first_starts: list[int] = []
        counts: list[int] = []
        codes: list[int] = []
        offsets: list[int] = []
        state_parts: list[np.ndarray] = []
        amp_parts: list[np.ndarray] = []
        dur_parts: list[np.ndarray] = []
        pos = 0
        for stream_id, series, start, last in pending:
            n_new = last - start + 1
            first_starts.append(start)
            counts.append(n_new)
            codes.append(self._code(stream_id))
            offsets.append(pos)
            if n_segments > 0:
                # Window s spans states/amplitudes/durations[s : s+m-1];
                # the region below covers s = start .. last exactly.
                region = slice(start, last + n_segments)
                state_parts.append(series.states[region])
                amp_parts.append(series.amplitudes[region])
                dur_parts.append(series.durations[region])
                state_parts.append(sep_states)
                amp_parts.append(sep_feats)
                dur_parts.append(sep_feats)
                pos += n_new + n_segments - 1 + sep
            else:
                pos += n_new
            self._next_start[stream_id] = last + 1
        count_arr = np.asarray(counts, dtype=np.int64)
        shift = np.concatenate(([0], np.cumsum(count_arr)[:-1]))
        ramp = np.arange(total, dtype=np.int64)
        starts = ramp + np.repeat(
            np.asarray(first_starts, dtype=np.int64) - shift, count_arr
        )
        stream_codes = np.repeat(
            np.asarray(codes, dtype=np.int32), count_arr
        )
        if n_segments > 0:
            # Global row index of each stream's windows inside the big
            # strided view; sentinel-straddling windows are simply never
            # selected.
            rows = ramp + np.repeat(
                np.asarray(offsets, dtype=np.int64) - shift, count_arr
            )
            windows = sliding_window_view(
                np.concatenate(state_parts), n_segments
            )
            amp_wins = sliding_window_view(
                np.concatenate(amp_parts), n_segments
            )
            dur_wins = sliding_window_view(
                np.concatenate(dur_parts), n_segments
            )
            keys = _window_keys(windows)[rows]
        else:
            rows = ramp
            amp_wins = np.empty((total, 0), dtype=float)
            dur_wins = np.empty((total, 0), dtype=float)
            keys = np.zeros(total, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        bounds = np.flatnonzero(
            np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        )
        for g, b in enumerate(bounds):
            e = bounds[g + 1] if g + 1 < len(bounds) else len(order)
            group = order[b:e]
            self._posting(int(sorted_keys[b]), n_segments).extend(
                stream_codes[group],
                starts[group],
                amp_wins[rows[group]],
                dur_wins[rows[group]],
            )
        return total

    def _posting(self, key: int, n_segments: int) -> _ColumnarPostings:
        posting = self.postings.get(key)
        if posting is None:
            posting = _ColumnarPostings(n_segments)
            self.postings[key] = posting
            coarse_key = collapse_signature(decode_signature(key, n_segments))
            self.coarse.setdefault(coarse_key, []).append(key)
        return posting


class StateSignatureIndex:
    """Signature -> candidate windows, over a :class:`MotionDatabase`.

    Parameters
    ----------
    database:
        The store whose streams are indexed.  Streams added (or appended
        to) after construction are picked up automatically on the next
        lookup.
    injector:
        Optional fault injector (chaos tests only); the
        ``"index.catch_up"`` site fires once per stream inside every
        catch-up batch.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When set, lookups count
        hits/misses, catch-up batches record their window counts and
        wall time (under an ``index.catch_up`` span), and postings
        growth is tracked in gauges; when ``None`` (the default) the
        lookup path pays one ``is None`` check.
    """

    def __init__(
        self, database: MotionDatabase, injector=None, telemetry=None
    ) -> None:
        self.database = database
        self.injector = injector
        self._by_length: dict[int, _LengthIndex] = {}
        self._removal_epoch = database.removal_epoch
        self._t = telemetry
        if telemetry is not None:
            from ..obs.metrics import DEFAULT_COUNT_BUCKETS

            registry = telemetry.registry
            self._c_lookups = registry.counter("index.lookups")
            self._c_hits = registry.counter("index.hits")
            self._c_misses = registry.counter("index.misses")
            self._c_windows = registry.counter("index.windows_indexed")
            self._h_catch_up = registry.histogram("index.catch_up_s")
            self._h_batch = registry.histogram(
                "index.catch_up_windows", bounds=DEFAULT_COUNT_BUCKETS
            )
            self._g_postings = registry.gauge("index.postings")
            self._g_lengths = registry.gauge("index.lengths")
            # Reusable span: candidates() is never re-entrant, so one
            # cached context manager avoids a per-lookup allocation.
            self._catch_up_span = telemetry.tracer.span("index.catch_up")
        events = getattr(database, "events", None)
        if events is not None:
            # Weak subscription: the database's long-lived bus must not
            # keep a short-lived (e.g. per-replay) index alive.
            events.subscribe(
                "stream_removed", self._on_stream_removed, weak=True
            )

    def _on_stream_removed(self, event) -> None:
        """Backend mutation event: drop length indexes holding the stream.

        This is the push-path counterpart of :meth:`_check_removals`,
        delivered synchronously by the backend's event bus at removal
        time; the epoch poll stays as a fallback for indexes wired to a
        database whose bus was reset (e.g. after ``copy.deepcopy``).
        """
        stream_id = event["stream_id"]
        stale = [
            n
            for n, length_index in self._by_length.items()
            if stream_id in length_index.indexed_streams
        ]
        for n in stale:
            del self._by_length[n]
        self._removal_epoch = self.database.removal_epoch

    def candidates(self, signature) -> CandidateSet | None:
        """All windows whose segment states equal ``signature``.

        Returns ``None`` when no window in the database matches.

        Catch-up is **transactional at the length-index level**: if the
        batch is interrupted (a crash, an allocator failure, a fault
        injected mid-stream), the partially updated length index is
        discarded before the exception propagates, and the next lookup
        rebuilds it from scratch.  An interrupted catch-up can therefore
        cost a rebuild, but can never leave the index silently missing
        windows.

        Parameters
        ----------
        signature:
            Segment-state sequence — a tuple or an int8 ndarray (the
            matcher passes ``Subsequence.segment_states`` directly); the
            window vertex count is ``len(signature) + 1``.
        """
        length_index = self._caught_up(len(signature) + 1)
        telemetry = self._t
        posting = length_index.postings.get(encode_signature(signature))
        if posting is None or posting.n == 0:
            if telemetry is not None:
                self._c_misses.inc()
            return None
        if telemetry is not None:
            self._c_hits.inc()
        return posting.stacked(length_index.stream_names())

    def coarse_groups(
        self, signature, n_vertices: int
    ) -> list[tuple[tuple[int, ...], CandidateSet]]:
        """Fine-signature groups matching ``signature`` at coarse granularity.

        Returns one ``(segment_states, candidates)`` entry per indexed
        fine signature of ``n_vertices``-vertex windows whose
        run-length-collapsed form equals ``collapse_signature(signature)``
        — the complete candidate universe for a warped match at that
        window length (see :func:`collapse_signature`).  All windows in
        one entry share the entry's exact segment-state sequence, so the
        caller can evaluate its refinement (e.g. the banded-DTW kernel)
        vectorised per group.
        """
        length_index = self._caught_up(n_vertices)
        telemetry = self._t
        coarse_key = collapse_signature(signature)
        groups: list[tuple[tuple[int, ...], CandidateSet]] = []
        names = None
        for key in length_index.coarse.get(coarse_key, ()):
            posting = length_index.postings.get(key)
            if posting is None or posting.n == 0:
                continue
            if names is None:
                names = length_index.stream_names()
            states = decode_signature(key, n_vertices - 1)
            groups.append((states, posting.stacked(names)))
        if telemetry is not None:
            (self._c_hits if groups else self._c_misses).inc()
        return groups

    def _caught_up(self, n_vertices: int) -> _LengthIndex:
        """The length index for ``n_vertices``, caught up to the database.

        Shared by :meth:`candidates` and :meth:`coarse_groups`; carries
        the transactional-catch-up and telemetry behaviour documented on
        :meth:`candidates`.
        """
        self._check_removals()
        length_index = self._by_length.get(n_vertices)
        if length_index is None:
            length_index = _LengthIndex(n_vertices)
            self._by_length[n_vertices] = length_index
        # Snapshot the stream list: a stream removed concurrently (e.g.
        # by a fault callback) must not break the iteration itself.
        records = list(self.database.iter_streams())
        telemetry = self._t
        try:
            if telemetry is None:
                length_index.catch_up_all(records, self.injector)
            else:
                span = self._catch_up_span
                with span:
                    added = length_index.catch_up_all(records, self.injector)
                self._h_catch_up.observe(span.wall)
        except BaseException:
            self._by_length.pop(n_vertices, None)
            raise
        if telemetry is not None:
            self._c_lookups.inc()
            if added:
                self._c_windows.inc(added)
                self._h_batch.observe(added)
            self._g_lengths.set(len(self._by_length))
            self._g_postings.set(
                sum(len(li.postings) for li in self._by_length.values())
            )
        return length_index

    def posting_groups(
        self, n_vertices: int
    ) -> list[tuple[int, CandidateSet]]:
        """Every posting at one window length, in sorted-key order.

        This is the **bulk scan** access path: offline analytics (motif
        discovery, anomaly mining) needs *all* same-signature groups of a
        length rather than the one group matching a live query, and only
        windows within one group are comparable under Definition 2 — so a
        per-group pairwise pass over this iteration covers exactly the
        finite-distance pairs without a single cross-group distance call.

        The length index is caught up first (same transactional contract
        as :meth:`candidates`), so the returned groups cover every window
        of every stream currently in the database.  Ordering is
        deterministic: keys ascending.
        """
        length_index = self._caught_up(n_vertices)
        names = length_index.stream_names()
        groups: list[tuple[int, CandidateSet]] = []
        for key in sorted(length_index.postings):
            posting = length_index.postings[key]
            if posting.n:
                groups.append((key, posting.stacked(names)))
        return groups

    # -- snapshot export / import ----------------------------------------------

    def export_buffers(self) -> dict[int, dict[str, object]]:
        """Pack every materialised length index into flat columnar buffers.

        The storage layer persists these arrays verbatim inside a
        snapshot segment (see
        :meth:`~repro.database.backend.LoggedBackend.compact`) and hands
        them back — memory-mapped — to :meth:`restore_buffers` on
        reopen, so a reopened index answers lookups with **zero
        rebuild**: only windows appended after the export watermark
        (``next_start``) are ever re-indexed.

        Per window length the payload carries the intern table and
        catch-up watermarks (JSON-safe) plus five arrays: the sorted
        posting keys, group offsets into the concatenated columns, and
        the stream-code/start/amplitude/duration columns themselves.
        Lengths whose signatures exceed :data:`MAX_RADIX_SEGMENTS`
        segments have keys past int64 and are skipped — they rebuild
        lazily on first lookup instead.
        """
        payload: dict[int, dict[str, object]] = {}
        for n_vertices, length_index in self._by_length.items():
            n_segments = n_vertices - 1
            if n_segments > MAX_RADIX_SEGMENTS:
                continue
            keys: list[int] = []
            offsets = [0]
            codes_parts, starts_parts = [], []
            amp_parts, dur_parts = [], []
            total = 0
            for key, posting in length_index.postings.items():
                if posting.n == 0:
                    continue
                keys.append(int(key))
                total += posting.n
                offsets.append(total)
                codes_parts.append(posting._stream_codes[: posting.n])
                starts_parts.append(posting._starts[: posting.n])
                amp_parts.append(posting._amplitudes[: posting.n])
                dur_parts.append(posting._durations[: posting.n])
            empty2 = np.empty((0, n_segments), dtype=float)
            payload[n_vertices] = {
                "stream_names": list(length_index._stream_names),
                "next_start": dict(length_index._next_start),
                "group_keys": np.asarray(keys, dtype=np.int64),
                "group_offsets": np.asarray(offsets, dtype=np.int64),
                "stream_codes": (
                    np.concatenate(codes_parts)
                    if codes_parts
                    else np.empty(0, dtype=np.int32)
                ),
                "starts": (
                    np.concatenate(starts_parts)
                    if starts_parts
                    else np.empty(0, dtype=np.int64)
                ),
                "amplitudes": (
                    np.concatenate(amp_parts) if amp_parts else empty2
                ),
                "durations": (
                    np.concatenate(dur_parts) if dur_parts else empty2
                ),
            }
        return payload

    def restore_buffers(self, payload: dict[int, dict[str, object]]) -> int:
        """Adopt :meth:`export_buffers` output (typically memory-mapped).

        Numeric columns become the postings' live buffers without a
        copy; appends past the snapshot watermark migrate a posting to
        fresh writable buffers on demand.  A length whose intern table
        references a stream no longer in the database is skipped — it
        rebuilds lazily, mirroring the removal-epoch invalidation path.
        Returns the number of length indexes restored.
        """
        restored = 0
        for n_vertices, state in payload.items():
            names = list(state["stream_names"])
            if any(name not in self.database for name in names):
                continue
            length_index = _LengthIndex(int(n_vertices))
            length_index._stream_names = names
            length_index._stream_codes = {
                name: code for code, name in enumerate(names)
            }
            length_index._next_start = {
                stream_id: int(start)
                for stream_id, start in dict(state["next_start"]).items()
            }
            keys = np.asarray(state["group_keys"], dtype=np.int64)
            offsets = np.asarray(state["group_offsets"], dtype=np.int64)
            codes = state["stream_codes"]
            starts = state["starts"]
            amplitudes = state["amplitudes"]
            durations = state["durations"]
            for g in range(len(keys)):
                b, e = int(offsets[g]), int(offsets[g + 1])
                # Route through _posting so the coarse map is registered
                # exactly as on the live path, then adopt the snapshot
                # columns as the fresh posting's buffers.
                posting = length_index._posting(
                    int(keys[g]), int(n_vertices) - 1
                )
                posting.adopt(
                    codes[b:e], starts[b:e], amplitudes[b:e], durations[b:e]
                )
            self._by_length[int(n_vertices)] = length_index
            restored += 1
        self._removal_epoch = self.database.removal_epoch
        return restored

    def _check_removals(self) -> None:
        """Drop length indexes holding windows of since-removed streams.

        Removal is rare (replay cleanup), so affected lengths are rebuilt
        from scratch on their next lookup rather than tombstoned; the
        epoch counter makes the append-only common case free.
        """
        if self._removal_epoch == self.database.removal_epoch:
            return
        self._removal_epoch = self.database.removal_epoch
        stale = [
            n
            for n, length_index in self._by_length.items()
            if any(
                stream_id not in self.database
                for stream_id in length_index.indexed_streams
            )
        ]
        for n in stale:
            del self._by_length[n]

    @property
    def indexed_lengths(self) -> tuple[int, ...]:
        """Window vertex counts that have been materialised so far."""
        return tuple(sorted(self._by_length))

    def n_postings(self, n_vertices: int) -> int:
        """Number of distinct signatures indexed at a given window length."""
        length_index = self._by_length.get(n_vertices)
        return 0 if length_index is None else len(length_index.postings)

    def n_windows(self, n_vertices: int) -> int:
        """Number of windows indexed at a given window length."""
        length_index = self._by_length.get(n_vertices)
        return 0 if length_index is None else length_index.n_windows


# -- standalone bulk posting scans ---------------------------------------------
#
# The two generators below serve the same (key, CandidateSet) groups as
# StateSignatureIndex.posting_groups without a live index: one straight
# from a snapshot's exported posting buffers (the mmap'd ``idx-*``
# columns — zero signature work), one recomputed from raw series (the
# fallback when a snapshot predates the requested window length).  Both
# iterate in the same deterministic sorted-key order.


def buffer_posting_groups(
    state: dict[str, object],
) -> Iterator[tuple[int, CandidateSet]]:
    """Groups from one length's :meth:`~StateSignatureIndex.export_buffers`
    payload (typically the memory-mapped ``idx-*`` snapshot columns).

    The columns are consumed as zero-copy slices: candidate features may
    be read-only views of the mmap, which is exactly what batch distance
    kernels want.  Keys are yielded ascending (exports preserve posting
    creation order, not key order, so this sorts).
    """
    names = np.asarray(list(state["stream_names"]), dtype=object)
    keys = np.asarray(state["group_keys"], dtype=np.int64)
    offsets = np.asarray(state["group_offsets"], dtype=np.int64)
    codes = state["stream_codes"]
    starts = state["starts"]
    amplitudes = state["amplitudes"]
    durations = state["durations"]
    for g in np.argsort(keys, kind="stable"):
        b, e = int(offsets[g]), int(offsets[g + 1])
        yield (
            int(keys[g]),
            CandidateSet(
                codes=np.asarray(codes[b:e]),
                names=names,
                starts=np.asarray(starts[b:e]),
                amplitudes=amplitudes[b:e],
                durations=durations[b:e],
            ),
        )


def series_posting_groups(
    streams: Iterable[tuple[str, "object"]], n_vertices: int
) -> Iterator[tuple[int, CandidateSet]]:
    """Groups recomputed directly from ``(stream_id, PLRSeries)`` pairs.

    The from-scratch counterpart of :func:`buffer_posting_groups` for
    window lengths a snapshot's index buffers don't cover (or for volatile
    stores with no index at all).  Streams shorter than ``n_vertices``
    contribute no windows; ordering and group contents match what a fresh
    :class:`StateSignatureIndex` would serve for the same streams.
    """
    m = n_vertices
    if m < 2:
        raise ValueError("windows need at least 2 vertices")
    n_segments = m - 1
    stream_names: list[str] = []
    by_key: dict[int, list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]] = {}
    for stream_id, series in streams:
        last = len(series) - m
        if last < 0:
            continue
        code = len(stream_names)
        stream_names.append(stream_id)
        region = slice(0, last + n_segments)
        windows = sliding_window_view(series.states[region], n_segments)
        amp = sliding_window_view(series.amplitudes[region], n_segments)
        dur = sliding_window_view(series.durations[region], n_segments)
        keys = _window_keys(windows)
        order = np.argsort(keys, kind="stable")
        previous: int | None = None
        block: list[int] = []
        for i in order:
            key = keys[i]
            if key != previous and block:
                by_key.setdefault(previous, []).append(
                    (code, np.asarray(block), amp, dur)
                )
                block = []
            previous = key
            block.append(int(i))
        if block:
            by_key.setdefault(previous, []).append(
                (code, np.asarray(block), amp, dur)
            )
    names = np.asarray(stream_names, dtype=object)
    for key in sorted(by_key):
        parts = by_key[key]
        group_codes = np.concatenate(
            [np.full(len(rows), code, dtype=np.int32) for code, rows, _, _ in parts]
        )
        group_starts = np.concatenate(
            [rows.astype(np.int64) for _, rows, _, _ in parts]
        )
        yield (
            key,
            CandidateSet(
                codes=group_codes,
                names=names,
                starts=group_starts,
                amplitudes=np.concatenate(
                    [amp[rows] for _, rows, amp, _ in parts]
                ),
                durations=np.concatenate(
                    [dur[rows] for _, rows, _, dur in parts]
                ),
            ),
        )
