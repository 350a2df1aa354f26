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
* Each window length keeps **one key-sorted CSR table** (keys ascending,
  a row range per key over flat columns, looked up with
  ``searchsorted``), built by its first catch-up or adopted from a
  snapshot by sorting only the keys; keys appended to later get a
  growable posting seeded with their rows.  Stream ids are interned to
  small integer codes, and a :class:`CandidateSet` hands out the codes
  with the intern table.

The index remains **lazy and incremental**: windows of a given length are
indexed the first time a query of that length arrives, and each lookup
first catches up with vertices appended since the previous lookup — which
is exactly the online-streaming pattern (the live session's series keeps
growing during treatment).  Stream *removal* is detected through the
database's ``removal_epoch`` counter, so the common append-only path pays
nothing for the check.  The no-index leg serves the same interface from
a throwaway :class:`LengthIndex` per lookup (:meth:`LengthIndex.scan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .store import MotionDatabase

__all__ = [
    "CandidateSet",
    "LengthIndex",
    "StateSignatureIndex",
    "StreamTable",
    "N_STATES",
    "MAX_RADIX_SEGMENTS",
    "encode_signature",
    "decode_signature",
    "collapse_signature",
]

#: Cardinality of the state alphabet (EX, EOE, IN, IRR).
N_STATES = 4

#: Longest signature (in segments) whose key fits an int64:
#: ``4 ** 31 < 2 ** 63``.  Longer signatures get Python-int keys, built
#: from int64 chunks of this many states.
MAX_RADIX_SEGMENTS = 31


#: Catch-up batches at or below this many windows skip the vectorised
#: batch machinery for direct scalar appends (see ``LengthIndex.catch_up``).
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


def _key_states(keys: np.ndarray, n_segments: int) -> np.ndarray:
    """Invert :func:`_window_keys`: the ``(len(keys), n_segments)`` int8
    state matrix of an int64 or object key array (a vectorised
    :func:`decode_signature`)."""
    states = np.empty((len(keys), n_segments), dtype=np.int8)
    for lo in range(0, n_segments, MAX_RADIX_SEGMENTS):
        width = min(MAX_RADIX_SEGMENTS, n_segments - lo)
        chunk = ((keys >> (2 * lo)) & (N_STATES**width - 1)).astype(np.int64)
        shifts = 2 * np.arange(width, dtype=np.int64)
        digits = (chunk[:, None] >> shifts) & (N_STATES - 1)
        states[:, lo : lo + width] = digits
    return states


def _coarse_keys(states: np.ndarray) -> np.ndarray:
    """Collapsed-signature keys of a ``(k, n_segments)`` state matrix.

    Row ``i``'s run-length-collapsed signature (:func:`collapse_signature`)
    is packed like a window key, with a sentinel state ``1`` one position
    past its last run.  The packed runs are below ``N_STATES ** n_runs``,
    so the sentinel makes the key carry ``n_runs`` as well: two rows share
    a key exactly when their collapsed signatures are equal, whatever
    their window lengths.
    """
    k, n_segments = states.shape
    keep = np.ones((k, n_segments), dtype=bool)
    keep[:, 1:] = states[:, 1:] != states[:, :-1]
    run = np.cumsum(keep, axis=1) - 1
    rows, cols = np.nonzero(keep)
    collapsed = np.zeros((k, n_segments + 1), dtype=np.int8)
    collapsed[rows, run[rows, cols]] = states[rows, cols]
    collapsed[np.arange(k), keep.sum(axis=1)] = 1
    return _window_keys(collapsed)


def _coarse_key(signature) -> tuple[int, int]:
    """One signature's collapsed key (as :func:`_coarse_keys` packs it)
    and its run count, with Python ints: a query's, once per lookup."""
    key, n_runs, previous = 0, 0, None
    for state in np.asarray(signature).tolist():
        if state != previous:
            key += state * N_STATES**n_runs
            n_runs += 1
            previous = state
    return key + N_STATES**n_runs, n_runs


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted-key grouping every posting layout is built with: a
    stable argsort of ``keys``, and bounds such that group ``g`` (the
    ``g``-th distinct key) is ``order[bounds[g] : bounds[g + 1]]``."""
    order = np.argsort(keys, kind="stable")
    if len(keys) == 0:
        return order, np.zeros(1, dtype=np.int64)
    ordered = keys[order]
    change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return order, np.r_[0, change, len(keys)].astype(np.int64)


class StreamTable:
    """A stream intern table at one state, with what retrieval derives
    from it per code.

    ``names[code]`` is the stream id of ``code`` (an object array of
    str).  A length index hands out one table per state of its intern
    table and a new one once a stream is interned, so the per-code
    columns below are computed at most once per state, each on the
    first lookup that asks for it: the names' lexicographic ranks
    (:meth:`ranks`) and each code's patient and session
    (:meth:`owners`).
    """

    __slots__ = ("names", "_ranks", "_owners", "_owners_epoch")

    def __init__(self, names) -> None:
        self.names = np.asarray(names, dtype=object)
        self._ranks: np.ndarray | None = None
        self._owners: tuple[np.ndarray, np.ndarray] | None = None
        self._owners_epoch: int | None = None

    def ranks(self) -> np.ndarray:
        """Each code's rank in the lexicographic order of the names.

        Codes are assigned in interning order, but retrieval ties on the
        stream id *string*, so ranking keys map codes through these.
        """
        if self._ranks is None:
            ranks = np.empty(len(self.names), dtype=np.intp)
            ranks[np.argsort(self.names)] = np.arange(len(self.names))
            self._ranks = ranks
        return self._ranks

    def owners(self, database: MotionDatabase) -> tuple[np.ndarray, np.ndarray]:
        """Each code's patient id and session id in ``database`` (object
        arrays); both are ``None`` for a stream the database no longer
        holds.

        A read that finds every stream is reused for as long as the
        database's ``removal_epoch`` stays the same: a stream id only
        changes owners by a removal and a re-creation.  So a removal,
        even one during the lookup (by a fault callback, say), forces a
        fresh read, and a read that misses a stream is not kept.
        """
        epoch = database.removal_epoch
        if self._owners is not None and self._owners_epoch == epoch:
            return self._owners
        patients, sessions = [], []
        for name in self.names.tolist():
            try:
                record = database.stream(name)
            except KeyError:  # removed mid-retrieval
                patients.append(None)
                sessions.append(None)
            else:
                patients.append(record.patient_id)
                sessions.append(record.session_id)
        owners = (
            np.asarray(patients, dtype=object),
            np.asarray(sessions, dtype=object),
        )
        if None not in patients:
            self._owners, self._owners_epoch = owners, epoch
        return owners


@dataclass(frozen=True)
class CandidateSet:
    """All indexed windows sharing one state signature.

    Attributes
    ----------
    codes, streams:
        The owning stream of window ``i`` is ``names[codes[i]]``, where
        ``names`` is the intern table ``streams`` holds (one entry per
        stream).  Consumers do per-stream work (provenance, filters,
        ranking keys) once per unique stream and expand it by integer
        fancy-indexing instead of paying Python-level string work per
        candidate.
    starts:
        Window start vertex per window.
    amplitudes, durations:
        Feature matrices, shape ``(n_windows, n_segments)``.
    """

    codes: np.ndarray
    streams: StreamTable
    starts: np.ndarray
    amplitudes: np.ndarray
    durations: np.ndarray

    @property
    def names(self) -> np.ndarray:
        """The intern table: stream id per code (object array of str)."""
        return self.streams.names

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
            streams=self.streams,
            starts=self.starts[mask],
            amplitudes=self.amplitudes[mask],
            durations=self.durations[mask],
        )


#: The flat posting columns, as attribute names of both posting layouts.
_COLUMNS = ("codes", "starts", "amplitudes", "durations")

#: The same columns' fields in an ``export_buffers`` payload.
_BUFFER_COLUMNS = ("stream_codes", "starts", "amplitudes", "durations")


def _candidate_slice(
    postings, rows: slice, streams: StreamTable
) -> CandidateSet:
    """Rows ``rows`` of a posting layout's columns, as a candidate set."""
    return CandidateSet(
        postings.codes[rows],
        streams,
        postings.starts[rows],
        postings.amplitudes[rows],
        postings.durations[rows],
    )


class _PostingTable:
    """Key-sorted CSR postings of one window length.

    ``keys`` holds the distinct signature keys ascending; key ``i`` owns
    rows ``lo[i]:hi[i]`` of the flat ``codes`` / ``starts`` /
    ``amplitudes`` / ``durations`` columns.  A built table is contiguous
    (``lo[i + 1] == hi[i]``); an adopted export keeps its row order, so
    only its keys are sorted.  Lookups are one ``searchsorted``.
    """

    __slots__ = ("keys", "lo", "hi") + _COLUMNS

    def __init__(self, keys, lo, hi, codes, starts, amplitudes, durations):
        self.keys = keys
        self.lo = lo
        self.hi = hi
        self.codes = codes
        self.starts = starts
        self.amplitudes = amplitudes
        self.durations = durations

    @property
    def n_rows(self) -> int:
        return len(self.starts)

    def contiguous(self) -> bool:
        """Whether the rows are already grouped in key order from row 0."""
        lo, hi = self.lo, self.hi
        if len(lo) == 0:
            return self.n_rows == 0
        return bool(
            lo[0] == 0 and hi[-1] == self.n_rows and np.all(lo[1:] == hi[:-1])
        )

    def find(self, key) -> int:
        """Position of ``key`` in :attr:`keys`, or ``-1``."""
        keys = self.keys
        i = int(np.searchsorted(keys, key))
        if i < len(keys) and keys[i] == key:
            return i
        return -1

    def select(self, i: int, streams: StreamTable) -> CandidateSet:
        """Key ``i``'s windows as zero-copy slices of the columns."""
        return _candidate_slice(self, slice(self.lo[i], self.hi[i]), streams)


class _GrownPosting:
    """One key's windows once its length's table is built and it grows.

    Created on the key's first append, seeded with the key's table rows
    (which it then supersedes), so only keys that grow are ever copied.
    Appends write into amortised-doubling buffers (n appends cost O(n)).
    """

    __slots__ = ("n", "_capacity") + _COLUMNS

    def __init__(self, n_segments: int) -> None:
        self.n = 0
        self._capacity = 0
        self.codes = np.empty(0, dtype=np.int32)
        self.starts = np.empty(0, dtype=np.int64)
        self.amplitudes = np.empty((0, n_segments), dtype=float)
        self.durations = np.empty((0, n_segments), dtype=float)

    def _reserve(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = max(4, self._capacity)
        while capacity < needed:
            capacity *= 2
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)
        self._capacity = capacity

    def extend(
        self,
        codes: np.ndarray | int,
        starts: np.ndarray,
        amplitudes: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Bulk-append windows (``codes`` broadcasts per row)."""
        k = len(starts)
        if k == 0:
            return
        self._reserve(self.n + k)
        block = slice(self.n, self.n + k)
        self.codes[block] = codes
        self.starts[block] = starts
        self.amplitudes[block] = amplitudes
        self.durations[block] = durations
        self.n += k

    def select(self, streams: StreamTable) -> CandidateSet:
        """The posting's windows as zero-copy slices of the buffers."""
        return _candidate_slice(self, slice(0, self.n), streams)


class LengthIndex:
    """Postings for all windows of one vertex count.

    A key-sorted CSR table holds every window the first catch-up saw (or
    a snapshot's export, adopted as it is); keys appended to after that
    live in grown postings that supersede their table rows.  The same
    retrieval interface serves the live index
    (:class:`StateSignatureIndex` keeps one per length) and the no-index
    leg (:meth:`scan` builds a throwaway one per query).
    """

    def __init__(self, n_vertices: int) -> None:
        self.n_vertices = n_vertices
        self.n_windows = 0
        self._table: _PostingTable | None = None
        self._grown: dict[int, _GrownPosting] = {}
        #: Grown keys the table does not hold, in creation order.
        self._new_keys: list[int] = []
        #: Lazy coarse column (see _coarse_column), built when
        #: ``_coarse_seen`` new keys existed.
        self._coarse: tuple[np.ndarray, ...] | None = None
        self._coarse_seen = 0
        self._next_start: dict[str, int] = {}
        self._stream_names: list[str] = []
        self._stream_codes: dict[str, int] = {}
        #: The intern table handed out by ``streams``, or ``None`` before
        #: the first lookup.
        self._streams: StreamTable | None = None

    @classmethod
    def scan(cls, records, n_vertices: int) -> "LengthIndex":
        """A length index over stream records, built in one pass: the
        no-index access path, and the bulk groups of streams no exported
        buffer covers."""
        length_index = cls(n_vertices)
        length_index.catch_up(records)
        return length_index

    @classmethod
    def restore(
        cls, n_vertices: int, state: dict[str, object]
    ) -> "LengthIndex":
        """Adopt one length's :meth:`export` payload (typically memory-
        mapped), sorting only its keys: no signature is decoded and no
        column copied."""
        length_index = cls(n_vertices)
        names = list(state["stream_names"])
        length_index._stream_names = names
        length_index._stream_codes = {n: c for c, n in enumerate(names)}
        length_index._next_start = {
            stream_id: int(start)
            for stream_id, start in dict(state["next_start"]).items()
        }
        # Plain ndarray views of the (typically memory-mapped) columns:
        # slicing them pays no memmap overhead.
        keys = np.asarray(state["group_keys"], dtype=np.int64)
        offsets = np.asarray(state["group_offsets"], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        length_index._table = _PostingTable(
            keys[order],
            offsets[:-1][order],
            offsets[1:][order],
            *(np.asarray(state[field]) for field in _BUFFER_COLUMNS),
        )
        length_index.n_windows = len(state["starts"])
        return length_index

    @property
    def n_postings(self) -> int:
        """Number of distinct signatures indexed."""
        return len(self._table.keys) + len(self._new_keys)

    def _code(self, stream_id: str) -> int:
        code = self._stream_codes.get(stream_id)
        if code is None:
            code = len(self._stream_names)
            self._stream_codes[stream_id] = code
            self._stream_names.append(stream_id)
        return code

    def streams(self) -> StreamTable:
        """The intern table at its current state: one :class:`StreamTable`
        per state, so its cached per-code columns outlive every lookup
        until a stream is interned (the table only grows)."""
        streams = self._streams
        if streams is None or len(streams.names) != len(self._stream_names):
            streams = self._streams = StreamTable(self._stream_names)
        return streams

    # -- catch-up ------------------------------------------------------------

    def catch_up(self, records, injector=None) -> int:
        """Index every window appended to any stream since the last call.

        ``records`` yields stream records (``stream_id`` and ``series``).
        Returns the number of windows added by this batch (telemetry's
        catch-up batch-size metric).

        All streams' new regions are spliced into **one** buffer per
        column (``n_segments - 1`` sentinel slots between streams, so no
        window straddles a boundary), every key is radix-encoded over one
        ``sliding_window_view``, valid rows are selected arithmetically,
        and one stable argsort groups them: into the CSR table on the
        first call, onto grown postings later.  A handful of windows
        (steady-state serving, where numpy's dispatch cost dwarfs the
        work) takes scalar appends instead.
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
        if self._table is not None and total <= _SMALL_CATCH_UP:
            # Pack each key with Python-int radix arithmetic and append
            # rows directly.
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
                    self._grow(key).extend(
                        code,
                        (s,),
                        amplitudes[s : s + n_segments],
                        durations[s : s + n_segments],
                    )
                self._next_start[stream_id] = last + 1
            self.n_windows += total
            return total
        sep = max(n_segments - 1, 0)
        sep_states = np.full(sep, -1, dtype=np.int8)
        sep_feats = np.zeros(sep, dtype=float)
        # A leading sentinel block keeps every buffer at least one window
        # long, also when nothing is pending (the first call then builds
        # an empty table).
        state_parts = [np.full(n_segments, -1, dtype=np.int8)]
        amp_parts = [np.zeros(n_segments)]
        dur_parts = [np.zeros(n_segments)]
        first_starts: list[int] = []
        counts: list[int] = []
        codes: list[int] = []
        offsets: list[int] = []
        pos = n_segments
        for stream_id, series, start, last in pending:
            n_new = last - start + 1
            first_starts.append(start)
            counts.append(n_new)
            codes.append(self._code(stream_id))
            offsets.append(pos)
            # Window s spans states/amplitudes/durations[s : s+m-1]; the
            # region below covers s = start .. last exactly.
            region = slice(start, last + n_segments)
            state_parts += [series.states[region], sep_states]
            amp_parts += [series.amplitudes[region], sep_feats]
            dur_parts += [series.durations[region], sep_feats]
            pos += n_new + n_segments - 1 + sep
            self._next_start[stream_id] = last + 1
        count_arr = np.asarray(counts, dtype=np.int64)
        ramp = np.arange(total, dtype=np.int64)
        shift = np.cumsum(count_arr) - count_arr
        starts = ramp + np.repeat(
            np.asarray(first_starts, dtype=np.int64) - shift, count_arr
        )
        stream_codes = np.repeat(np.asarray(codes, dtype=np.int32), count_arr)
        # Global row index of each stream's windows inside the big strided
        # view; sentinel-straddling windows are simply never selected.
        rows = ramp + np.repeat(
            np.asarray(offsets, dtype=np.int64) - shift, count_arr
        )
        windows = sliding_window_view(np.concatenate(state_parts), n_segments)
        amp_wins = sliding_window_view(np.concatenate(amp_parts), n_segments)
        dur_wins = sliding_window_view(np.concatenate(dur_parts), n_segments)
        keys = _window_keys(windows)[rows]
        order, bounds = _sorted_groups(keys)
        if self._table is None:
            take = rows[order]
            self._table = _PostingTable(
                keys[order[bounds[:-1]]],
                bounds[:-1],
                bounds[1:],
                stream_codes[order],
                starts[order],
                amp_wins[take],
                dur_wins[take],
            )
        else:
            for b, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                group = order[b:e]
                self._grow(keys[group[0]]).extend(
                    stream_codes[group],
                    starts[group],
                    amp_wins[rows[group]],
                    dur_wins[rows[group]],
                )
        self.n_windows += total
        return total

    def _grow(self, key) -> _GrownPosting:
        """The grown posting for ``key``; on the key's first append it is
        seeded with the key's table rows, or registered as a new key."""
        key = int(key)
        posting = self._grown.get(key)
        if posting is None:
            table = self._table
            posting = self._grown[key] = _GrownPosting(self.n_vertices - 1)
            i = table.find(key)
            if i < 0:
                self._new_keys.append(key)
            else:
                rows = slice(table.lo[i], table.hi[i])
                posting.extend(
                    *(getattr(table, name)[rows] for name in _COLUMNS)
                )
        return posting

    # -- lookups -------------------------------------------------------------

    def _lookup(self, key, streams: StreamTable) -> CandidateSet | None:
        posting = self._grown.get(key)
        if posting is not None:
            return posting.select(streams)
        table = self._table
        i = table.find(key)
        return None if i < 0 else table.select(i, streams)

    def candidates(self, signature) -> CandidateSet | None:
        """All windows whose segment states equal ``signature``, or
        ``None`` when no window matches."""
        return self._lookup(encode_signature(signature), self.streams())

    def coarse_groups(
        self, signature
    ) -> list[tuple[tuple[int, ...], CandidateSet]]:
        """One ``(segment_states, candidates)`` entry per fine signature
        whose run-length-collapsed form equals ``signature``'s (see
        :meth:`StateSignatureIndex.coarse_groups`), keys ascending."""
        target, n_runs = _coarse_key(signature)
        if n_runs >= self.n_vertices:
            # More runs than this length has segments: nothing collapses
            # to it (and its key may not fit this length's key dtype).
            return []
        coarse, fine, states = self._coarse_column()
        lo = np.searchsorted(coarse, target, side="left")
        hi = np.searchsorted(coarse, target, side="right")
        streams = self.streams()
        return [
            (tuple(row), self._lookup(key, streams))
            for row, key in zip(states[lo:hi].tolist(), fine[lo:hi].tolist())
        ]

    def _coarse_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every fine key's collapsed key, sorted (fine keys ascending
        within one), with the fine keys and their states aligned.

        Computed vectorised on the first warped lookup at this length,
        and again on the next one after keys new to the length appear
        (rare: 5 in 3,600 ``modes-large`` ticks).  Rigid and normalized
        lookups never decode a signature.
        """
        if self._coarse is None or self._coarse_seen < len(self._new_keys):
            table_keys = self._table.keys
            fine = np.sort(
                np.concatenate(
                    (
                        table_keys,
                        np.asarray(self._new_keys, dtype=table_keys.dtype),
                    )
                )
            )
            states = _key_states(fine, self.n_vertices - 1)
            coarse = _coarse_keys(states)
            order = np.argsort(coarse, kind="stable")
            self._coarse = (coarse[order], fine[order], states[order])
            self._coarse_seen = len(self._new_keys)
        return self._coarse

    # -- bulk access ---------------------------------------------------------

    def table(self) -> _PostingTable:
        """The table and every grown posting as one contiguous key-sorted
        CSR: the table itself when nothing grew and its rows are already
        in key order, otherwise one regrouping of all rows."""
        table = self._table
        if not self._grown and table.contiguous():
            return table
        grown_keys = np.asarray(list(self._grown), dtype=table.keys.dtype)
        kept = np.flatnonzero(~np.isin(table.keys, grown_keys))
        counts = (table.hi - table.lo)[kept]
        rows = np.concatenate(
            [np.arange(table.lo[i], table.hi[i]) for i in kept]
            + [np.empty(0, dtype=np.int64)]
        )
        postings = self._grown.values()
        keys = np.concatenate(
            (
                np.repeat(table.keys[kept], counts),
                np.repeat(grown_keys, [p.n for p in postings]),
            )
        )
        columns = [
            np.concatenate(
                [getattr(table, name)[rows]]
                + [getattr(p, name)[: p.n] for p in postings]
            )
            for name in _COLUMNS
        ]
        order, bounds = _sorted_groups(keys)
        return _PostingTable(
            keys[order[bounds[:-1]]],
            bounds[:-1],
            bounds[1:],
            *(column[order] for column in columns),
        )

    def posting_groups(self) -> list[tuple[int, CandidateSet]]:
        """Every posting, keys ascending."""
        table = self.table()
        streams = self.streams()
        return [
            (key, table.select(i, streams))
            for i, key in enumerate(table.keys.tolist())
        ]

    def export(self) -> dict[str, object]:
        """The length as one sorted CSR payload (see
        :meth:`StateSignatureIndex.export_buffers`)."""
        table = self.table()
        return {
            "stream_names": list(self._stream_names),
            "next_start": dict(self._next_start),
            "group_keys": table.keys.astype(np.int64, copy=False),
            "group_offsets": np.append(table.lo, table.n_rows).astype(
                np.int64, copy=False
            ),
            **{
                field: getattr(table, name)
                for field, name in zip(_BUFFER_COLUMNS, _COLUMNS)
            },
        }


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
        self._by_length: dict[int, LengthIndex] = {}
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
        found = self._caught_up(len(signature) + 1).candidates(signature)
        if self._t is not None:
            (self._c_misses if found is None else self._c_hits).inc()
        return found

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
        groups = self._caught_up(n_vertices).coarse_groups(signature)
        if self._t is not None:
            (self._c_hits if groups else self._c_misses).inc()
        return groups

    def _caught_up(self, n_vertices: int) -> LengthIndex:
        """The length index for ``n_vertices``, caught up to the database.

        Shared by :meth:`candidates` and :meth:`coarse_groups`; carries
        the transactional-catch-up and telemetry behaviour documented on
        :meth:`candidates`.
        """
        self._check_removals()
        length_index = self._by_length.get(n_vertices)
        if length_index is None:
            length_index = LengthIndex(n_vertices)
            self._by_length[n_vertices] = length_index
        # Snapshot the stream list: a stream removed concurrently (e.g.
        # by a fault callback) must not break the iteration itself.
        records = list(self.database.iter_streams())
        telemetry = self._t
        try:
            if telemetry is None:
                length_index.catch_up(records, self.injector)
            else:
                span = self._catch_up_span
                with span:
                    added = length_index.catch_up(records, self.injector)
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
                sum(li.n_postings for li in self._by_length.values())
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
        return self._caught_up(n_vertices).posting_groups()

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
        catch-up watermarks (JSON-safe) plus six arrays: the posting keys
        ascending, group offsets into the concatenated columns, and the
        stream-code/start/amplitude/duration columns themselves, grouped
        in key order.  Lengths whose signatures exceed
        :data:`MAX_RADIX_SEGMENTS` segments have keys past int64 and are
        skipped — they rebuild lazily on first lookup instead.
        """
        return {
            n_vertices: length_index.export()
            for n_vertices, length_index in self._by_length.items()
            if n_vertices - 1 <= MAX_RADIX_SEGMENTS
        }

    def restore_buffers(self, payload: dict[int, dict[str, object]]) -> int:
        """Adopt :meth:`export_buffers` output (typically memory-mapped).

        Each length's columns become its CSR table without a copy; only
        the keys are sorted, so exports in key order and older ones in
        posting-creation order both restore.  A length whose intern table
        references a stream no longer in the database is skipped — it
        rebuilds lazily, mirroring the removal-epoch invalidation path.
        Returns the number of length indexes restored.
        """
        restored = 0
        for n_vertices, state in payload.items():
            if any(n not in self.database for n in state["stream_names"]):
                continue
            self._by_length[int(n_vertices)] = LengthIndex.restore(
                int(n_vertices), state
            )
            restored += 1
        self._removal_epoch = self.database.removal_epoch
        return restored

    def _check_removals(self) -> None:
        """Drop every length index once any stream was removed.

        The index's one removal path: it compares the database's removal
        epoch at each lookup, so a copied index (``copy.deepcopy``) or
        one whose stream was removed and re-created under the same id
        between lookups never serves the old windows.  Removal is rare
        (replay cleanup), so lengths rebuild from scratch on their next
        lookup rather than being tombstoned; the epoch counter makes the
        append-only common case free.
        """
        if self._removal_epoch != self.database.removal_epoch:
            self._removal_epoch = self.database.removal_epoch
            self._by_length.clear()

    @property
    def indexed_lengths(self) -> tuple[int, ...]:
        """Window vertex counts that have been materialised so far."""
        return tuple(sorted(self._by_length))

    def n_postings(self, n_vertices: int) -> int:
        """Number of distinct signatures indexed at a given window length."""
        length_index = self._by_length.get(n_vertices)
        return 0 if length_index is None else length_index.n_postings

    def n_windows(self, n_vertices: int) -> int:
        """Number of windows indexed at a given window length."""
        length_index = self._by_length.get(n_vertices)
        return 0 if length_index is None else length_index.n_windows
