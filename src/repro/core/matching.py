"""Subsequence matching: candidate retrieval plus Definition 2 ranking.

:class:`SubsequenceMatcher` answers "which historical windows are similar
to this query?" against a :class:`~repro.database.store.MotionDatabase`.
Candidates are fetched either through the state-signature index (the
paper's future-work extension, default) or by a linear scan (the paper's
baseline access path), then ranked by the weighted distance and filtered
by the threshold ``delta``.

Both access paths serve the same retrieval interface: the index hands
back columnar :class:`CandidateSet` slices of its key-sorted postings,
and the linear scan builds a throwaway
:class:`~repro.database.index.LengthIndex` from every stream's windows
(one vectorised pass over strided views) for each lookup.

Every leg — rigid and normalized, warped, over the index or the scan —
runs one sequence of stages: candidates, admissibility mask, provenance
and source weights, distance kernel, threshold, rank.  Every candidate
set carries interned stream codes, so the per-stream work (exclusion,
patient restriction, provenance, ranking keys) runs once per stream and
expands to candidates by integer indexing.  Only the kernel and the
candidate grouping vary by mode.

Ranking is fully deterministic: equal distances tie-break by
``(stream_id, start, n_vertices)``, so retrieval is reproducible across
runs and platforms.  When only the best ``max_matches`` are wanted, the
ranking uses ``np.argpartition`` top-k selection instead of a full sort
— the selected set (including boundary ties) is sorted, so the result is
identical to sorting everything and truncating.

The ranked result is a columnar :class:`MatchSet`: the interned stream
names, and per match its stream code, start, length and distance, plus
the provenance per code.  The prediction plan builder reads those
columns directly, so the serving path creates no :class:`Match` object;
indexing or iterating the set materialises them, once per set.

Same-stream candidates that overlap the query window are always excluded:
the query is the live suffix of its own stream, and an overlapping window
has no usable future.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..database.index import CandidateSet, LengthIndex, StateSignatureIndex
from ..database.store import MotionDatabase
from .model import Subsequence
from .query import warped_length_range
from .similarity import (
    MatchMode,
    SimilarityParams,
    SourceRelation,
    batch_distance,
    batch_distance_normalized,
    batch_warped_distance,
)

__all__ = [
    "Match",
    "MatchSet",
    "PartialTopK",
    "QueryView",
    "SubsequenceMatcher",
    "match_sort_key",
]


@dataclass(frozen=True)
class Match:
    """One retrieved similar subsequence."""

    stream_id: str
    start: int
    n_vertices: int
    distance: float
    relation: SourceRelation

    def subsequence(self, database: MotionDatabase) -> Subsequence:
        """Materialise the matched window from the database."""
        series = database.stream(self.stream_id).series
        return series.subsequence(self.start, self.start + self.n_vertices)


def match_sort_key(match: Match) -> tuple[float, str, int, int]:
    """The canonical retrieval order: ``(distance, stream_id, start,
    n_vertices)``.

    This is the same total order ``_rank`` realises with ``np.lexsort``
    (lexicographic stream-id codes), so sorting any set of matches with
    this key reproduces the matcher's deterministic ordering exactly.
    The length component only discriminates in warped mode, where one
    start can match at several window lengths; rigid and normalized
    retrievals return a single length per query, so their order is the
    historical ``(distance, stream_id, start)``.
    """
    return (match.distance, match.stream_id, match.start, match.n_vertices)


class MatchSet(Sequence[Match]):
    """A ranked retrieval result, held as columns.

    Match ``i`` is the window ``starts[i] : starts[i] + lengths[i]`` of
    stream ``names[codes[i]]`` at distance ``distances[i]``, with
    provenance ``relations[codes[i]]`` (entries of codes no match uses
    may be ``None``).  :func:`~repro.core.prediction.build_prediction_plan`
    reads these columns directly.

    The set is a read-only sequence of :class:`Match`: indexing or
    iterating it builds the ``Match`` objects, once per set, with the
    field values and types the matcher has always returned.  It compares
    equal to the ``list`` of those matches, in both directions.
    """

    __slots__ = (
        "names",
        "codes",
        "starts",
        "lengths",
        "distances",
        "relations",
        "_matches",
    )

    def __init__(
        self,
        names: np.ndarray,
        codes: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        distances: np.ndarray,
        relations: list[SourceRelation | None],
    ) -> None:
        self.names = names
        self.codes = codes
        self.starts = starts
        self.lengths = lengths
        self.distances = distances
        self.relations = relations
        self._matches: tuple[Match, ...] | None = None

    @classmethod
    def from_matches(cls, matches: Iterable[Match]) -> "MatchSet":
        """The columnar form of ``matches``, which it keeps as its items.

        Streams are interned by ``(stream_id, relation)``, so any list —
        including one merged across shards — has one relation per code.
        A :class:`MatchSet` is returned as it is.
        """
        if isinstance(matches, MatchSet):
            return matches
        matches = tuple(matches)
        n = len(matches)
        interned: dict[tuple[str, SourceRelation], int] = {}
        names: list[str] = []
        relations: list[SourceRelation | None] = []
        codes = np.empty(n, dtype=np.intp)
        for i, match in enumerate(matches):
            key = (match.stream_id, match.relation)
            code = interned.get(key)
            if code is None:
                code = interned[key] = len(names)
                names.append(match.stream_id)
                relations.append(match.relation)
            codes[i] = code
        result = cls(
            np.asarray(names, dtype=object),
            codes,
            np.fromiter((m.start for m in matches), np.int64, n),
            np.fromiter((m.n_vertices for m in matches), np.intp, n),
            np.fromiter((m.distance for m in matches), float, n),
            relations,
        )
        result._matches = matches
        return result

    @classmethod
    def empty(cls) -> "MatchSet":
        """A set with no matches."""
        return cls.from_matches(())

    def _materialised(self) -> tuple[Match, ...]:
        matches = self._matches
        if matches is None:
            names = [str(name) for name in self.names.tolist()]
            relations = self.relations
            matches = self._matches = tuple(
                Match(names[c], start, length, distance, relations[c])
                for c, start, length, distance in zip(
                    self.codes.tolist(),
                    self.starts.tolist(),
                    self.lengths.tolist(),
                    self.distances.tolist(),
                )
            )
        return matches

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._materialised()[index])
        return self._materialised()[index]

    def __iter__(self):
        return iter(self._materialised())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (MatchSet, list)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]  # equal to lists

    def __repr__(self) -> str:
        return f"MatchSet({list(self._materialised())!r})"


@dataclass(frozen=True)
class QueryView:
    """The portable projection of a query window.

    A remote shard scores a query it cannot materialise (the live
    series lives on the home shard), so this view carries exactly the
    fields the ``query_stream_id=None`` retrieval path reads: the
    segment-state signature for candidate generation and the per-segment
    amplitude/duration features for :func:`batch_distance`.  Arrays
    round-trip through JSON float ``repr`` bit-exactly, keeping remote
    distances byte-identical to a local computation.
    """

    segment_states: np.ndarray
    amplitudes: np.ndarray
    durations: np.ndarray
    n_vertices: int

    @property
    def n_segments(self) -> int:
        return self.n_vertices - 1

    @classmethod
    def from_query(cls, query: Subsequence) -> "QueryView":
        """Project a live query window into its portable view."""
        return cls(
            segment_states=np.asarray(query.segment_states, dtype=np.int8),
            amplitudes=np.asarray(query.amplitudes, dtype=float),
            durations=np.asarray(query.durations, dtype=float),
            n_vertices=int(query.n_vertices),
        )


@dataclass(frozen=True)
class PartialTopK:
    """One shard's contribution to a scattered retrieval.

    Holds the shard-local top-``max_matches`` in canonical order.  The
    coordinator folds any number of partials with :meth:`merge`: since
    every shard list is the head of its shard's full ranking under the
    *same* total order, each shard's contribution to the global top-k is
    a prefix of its partial — merging the lists and truncating is
    exactly the single-process result.
    """

    matches: tuple[Match, ...]

    @staticmethod
    def merge(
        parts: Iterable["PartialTopK"], max_matches: int | None = None
    ) -> list[Match]:
        """Global top-k across shards (deterministic canonical order)."""
        merged: list[Match] = []
        for part in parts:
            merged.extend(part.matches)
        merged.sort(key=match_sort_key)
        if max_matches is not None:
            del merged[max_matches:]
        return merged


class SubsequenceMatcher:
    """Finds Definition 2 matches for query subsequences.

    Parameters
    ----------
    database:
        The stream store to search.
    params:
        Distance parameters (Table 1 defaults).
    use_index:
        Retrieve candidates through the state-signature index (default) or
        by scanning every window of every stream (ablation baseline).
    injector:
        Optional fault injector (chaos tests only), forwarded to the
        signature index so catch-up batches can be interrupted.
    index:
        Optional prebuilt :class:`StateSignatureIndex` to serve from
        instead of constructing a fresh one (it must wrap the same
        ``database``).  Ignored with ``use_index=False``.  When omitted
        and the database's backend carries memory-mapped snapshot
        buffers from a reopen
        (:attr:`~repro.database.backend.LoggedBackend.loaded_index_buffers`),
        the fresh index restores them — a reopened database answers its
        first query with zero index rebuild.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When set, every
        retrieval counts candidates generated vs. pruned vs. ranked
        (the paper's key efficiency claim) and records its wall time
        under a ``matcher.find`` span; forwarded to the signature
        index.  ``None`` (the default) costs one ``is None`` check per
        retrieval.
    """

    def __init__(
        self,
        database: MotionDatabase,
        params: SimilarityParams | None = None,
        use_index: bool = True,
        injector=None,
        index: StateSignatureIndex | None = None,
        telemetry=None,
    ) -> None:
        self.database = database
        self.params = params or SimilarityParams()
        self.use_index = use_index
        if not use_index:
            self._index = None
        elif index is not None:
            self._index = index
        else:
            self._index = StateSignatureIndex(
                database, injector, telemetry=telemetry
            )
            buffers = getattr(
                database.backend, "loaded_index_buffers", None
            )
            if buffers:
                self._index.restore_buffers(buffers)
        self._t = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._c_queries = registry.counter("matcher.queries")
            self._c_generated = registry.counter("matcher.candidates_generated")
            self._c_pruned = registry.counter("matcher.candidates_pruned")
            self._c_ranked = registry.counter("matcher.candidates_ranked")
            self._c_matches = registry.counter("matcher.matches_returned")
            self._h_find = registry.histogram("matcher.find_s")
            # Reusable span: find_matches() is never re-entrant, so one
            # cached context manager avoids a per-query allocation.
            self._find_span = telemetry.tracer.span("matcher.find")

    @property
    def index(self) -> StateSignatureIndex | None:
        """The live signature index (``None`` when scanning linearly)."""
        return self._index

    def find_matches(
        self,
        query: Subsequence,
        query_stream_id: str | None = None,
        threshold: float | None = None,
        max_matches: int | None = None,
        restrict_patients: Iterable[str] | None = None,
        exclude_streams: Iterable[str] | None = None,
        params: SimilarityParams | None = None,
    ) -> MatchSet:
        """Similar subsequences for ``query``, closest first.

        Ordering is deterministic: ascending distance, ties broken by
        ``(stream_id, start, n_vertices)``.  The result is a columnar
        :class:`MatchSet`, a read-only sequence of :class:`Match`.

        Parameters
        ----------
        query:
            The query window.
        query_stream_id:
            Stream the query came from; enables source weighting and
            overlap exclusion.  ``None`` treats every candidate as coming
            from another patient.
        threshold:
            Distance cut-off; defaults to the params' ``delta``.  Pass
            ``math.inf`` to disable.
        max_matches:
            Keep only the closest ``max_matches`` (top-k selection via
            ``np.argpartition`` — no full sort of the candidate set);
            ``0`` returns no match, and a negative value raises
            :class:`ValueError`.
        restrict_patients:
            When given, only streams of these patients are searched (the
            Figure 8a "prediction with clustering" mode).
        exclude_streams:
            Streams whose windows are never admissible.  The session
            service masks the *other live tenants* this way: their
            futures have not happened yet, and excluding them keeps each
            tenant's retrieval byte-identical to running alone (the
            ranking is deterministic, so removing foreign candidates
            yields exactly the solo result).
        params:
            Per-call parameter override (ablation sweeps).
        """
        if max_matches is not None and max_matches < 0:
            raise ValueError(
                f"max_matches must be None or >= 0, got {max_matches}"
            )
        telemetry = self._t
        if telemetry is None:
            return self._find(
                query,
                query_stream_id,
                threshold,
                max_matches,
                restrict_patients,
                exclude_streams,
                params,
                None,
            )
        stats = {"generated": 0, "admissible": 0, "ranked": 0}
        span = self._find_span
        with span:
            matches = self._find(
                query,
                query_stream_id,
                threshold,
                max_matches,
                restrict_patients,
                exclude_streams,
                params,
                stats,
            )
        self._h_find.observe(span.wall)
        self._c_queries.inc()
        self._c_generated.inc(stats["generated"])
        self._c_pruned.inc(stats["generated"] - stats["admissible"])
        self._c_ranked.inc(stats["ranked"])
        self._c_matches.inc(len(matches))
        return matches

    def find_partial(
        self,
        view: QueryView,
        threshold: float | None = None,
        max_matches: int | None = None,
        restrict_patients: Iterable[str] | None = None,
        exclude_streams: Iterable[str] | None = None,
        params: SimilarityParams | None = None,
    ) -> PartialTopK:
        """This shard's top-k for a remote query, as a mergeable partial.

        Scores a :class:`QueryView` with ``query_stream_id=None``: every
        local candidate is, by construction of the patient-sharded
        layout, another patient's stream relative to the remote query,
        so the ``w_s`` weighting here equals what a single process would
        assign those same candidates.  The caller merges partials with
        :meth:`PartialTopK.merge`.
        """
        matches = self.find_matches(
            view,  # duck-typed: the None-stream path reads only the view's fields
            query_stream_id=None,
            threshold=threshold,
            max_matches=max_matches,
            restrict_patients=restrict_patients,
            exclude_streams=exclude_streams,
            params=params,
        )
        return PartialTopK(matches=tuple(matches))

    def _find(
        self,
        query: Subsequence,
        query_stream_id: str | None,
        threshold: float | None,
        max_matches: int | None,
        restrict_patients: Iterable[str] | None,
        exclude_streams: Iterable[str] | None,
        params: SimilarityParams | None,
        stats: dict | None,
    ) -> MatchSet:
        """The retrieval itself; ``stats`` (telemetry only) is filled with
        candidate counts at each pruning stage.

        Dispatches on ``params.mode``: warped retrieval scores coarse
        signature groups one by one (:meth:`_find_warped`); rigid and
        normalized retrieval score the query's one fine signature, with
        the matching distance kernel.
        """
        params = params or self.params
        if threshold is None:
            threshold = params.distance_threshold
        excluded: set[str] | None = None
        if exclude_streams is not None:
            excluded = {str(s) for s in exclude_streams}
            excluded.discard(str(query_stream_id))
        allowed = None if restrict_patients is None else set(restrict_patients)
        if params.mode is MatchMode.WARPED:
            return self._find_warped(
                query,
                query_stream_id,
                threshold,
                max_matches,
                excluded,
                allowed,
                params,
                stats,
            )

        candidates = self._candidates(query)
        if candidates is None or candidates.n_candidates == 0:
            return MatchSet.empty()
        if stats is not None:
            stats["generated"] = candidates.n_candidates
        admitted = self._admit(
            candidates,
            query,
            query_stream_id,
            query.n_vertices,
            excluded,
            allowed,
            params,
        )
        if admitted is None:
            return MatchSet.empty()
        candidates, weights, relations = admitted
        if stats is not None:
            stats["admissible"] = candidates.n_candidates
        distance_kernel = (
            batch_distance_normalized
            if params.mode is MatchMode.NORMALIZED
            else batch_distance
        )
        distances = distance_kernel(
            query,
            candidates.amplitudes,
            candidates.durations,
            weights,
            params,
        )

        kept = np.flatnonzero(distances <= threshold)
        if len(kept) == 0:
            return MatchSet.empty()
        if stats is not None:
            stats["ranked"] = len(kept)
        names = candidates.names
        codes = candidates.codes[kept]
        starts = candidates.starts[kept]
        distances = distances[kept]
        order = self._rank(
            distances, _lexicographic(names)[codes], starts, max_matches
        )
        return MatchSet(
            names,
            codes[order],
            starts[order],
            np.full(len(order), query.n_vertices, dtype=np.intp),
            distances[order],
            relations,
        )

    # -- ranking ------------------------------------------------------------------

    @staticmethod
    def _rank(
        distances: np.ndarray,
        name_ranks: np.ndarray,
        starts: np.ndarray,
        max_matches: int | None,
        lengths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Order candidates by ``(distance, stream_id, start, n_vertices)``.

        ``name_ranks`` are per-candidate keys whose relative order is the
        stream ids' lexicographic order; ``lengths`` may be omitted when
        every candidate has the same one.  With ``max_matches`` set,
        ``np.argpartition`` preselects the k smallest distances plus any
        candidates tied with the k-th value, and only that subset is
        sorted — the truncated result is exactly the full sort's head.
        """
        keys = (starts, name_ranks, distances)
        if lengths is not None:
            keys = (lengths, *keys)
        if max_matches is not None and max_matches < len(distances):
            if max_matches == 0:
                return np.empty(0, dtype=np.intp)
            head = np.argpartition(distances, max_matches - 1)[:max_matches]
            cut = distances[head].max()
            sel = np.flatnonzero(distances <= cut)
            order = np.lexsort(tuple(key[sel] for key in keys))
            return sel[order][:max_matches]
        return np.lexsort(keys)

    # -- warped retrieval --------------------------------------------------------

    def _find_warped(
        self,
        query: Subsequence,
        query_stream_id: str | None,
        threshold: float,
        max_matches: int | None,
        excluded: set[str] | None,
        allowed: set[str] | None,
        params: SimilarityParams,
        stats: dict | None,
    ) -> MatchSet:
        """Coarse-to-fine warped retrieval.

        For every admissible window length (``warped_length_range``), the
        candidate universe is the set of fine-signature groups whose
        run-length-collapsed signature equals the query's — a complete
        coarse filter for banded alignment (see
        :func:`~repro.database.index.collapse_signature`).  Each group
        shares one exact segment-state sequence, so the banded-DTW kernel
        scores all of its windows vectorised; non-finite distances (no
        within-band, state-consistent alignment) are refined away.

        Groups of different window lengths come from different intern
        tables, so the kept rows' stream codes are re-interned into one
        table before the single canonical ``(distance, stream_id, start,
        n_vertices)`` ranking.  Own-stream overlap uses the candidate's
        extent since warped matches may differ in length from the query.
        """
        m = query.n_vertices
        if m < 2:
            return MatchSet.empty()
        q_states = np.asarray(query.segment_states, dtype=np.int8)
        q_amps = np.asarray(query.amplitudes, dtype=float)
        q_durs = np.asarray(query.durations, dtype=float)

        n_generated = n_admissible = n_ranked = 0
        interned: dict[str, int] = {}
        names: list[str] = []
        relations: list[SourceRelation | None] = []
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
        for length in warped_length_range(m, params.warp_band):
            for states, cand in self._coarse_groups(q_states, length):
                n_generated += cand.n_candidates
                admitted = self._admit(
                    cand,
                    query,
                    query_stream_id,
                    length,
                    excluded,
                    allowed,
                    params,
                )
                if admitted is None:
                    continue
                cand, weights, rel_of = admitted
                n_admissible += cand.n_candidates
                distances = batch_warped_distance(
                    q_states,
                    q_amps,
                    q_durs,
                    np.asarray(states, dtype=np.int8),
                    cand.amplitudes,
                    cand.durations,
                    weights,
                    params,
                )
                keep = np.flatnonzero(
                    (distances <= threshold) & np.isfinite(distances)
                )
                if len(keep) == 0:
                    continue
                n_ranked += len(keep)
                codes = cand.codes[keep]
                present = np.unique(codes)
                to_global = np.empty(len(cand.names), dtype=np.intp)
                for c in present.tolist():
                    name = cand.names[c]
                    g = interned.get(name)
                    if g is None:
                        g = interned[name] = len(names)
                        names.append(name)
                        relations.append(rel_of[c])
                    to_global[c] = g
                parts.append(
                    (to_global[codes], cand.starts[keep], distances[keep], length)
                )
        if stats is not None:
            stats["generated"] = n_generated
            stats["admissible"] = n_admissible
            stats["ranked"] = n_ranked
        if not parts:
            return MatchSet.empty()
        name_array = np.asarray(names, dtype=object)
        codes = np.concatenate([part[0] for part in parts])
        starts = np.concatenate([part[1] for part in parts])
        distances = np.concatenate([part[2] for part in parts])
        lengths = np.repeat(
            np.asarray([part[3] for part in parts], dtype=np.intp),
            [len(part[0]) for part in parts],
        )
        order = self._rank(
            distances,
            _lexicographic(name_array)[codes],
            starts,
            max_matches,
            lengths,
        )
        return MatchSet(
            name_array,
            codes[order],
            starts[order],
            lengths[order],
            distances[order],
            relations,
        )

    def _coarse_groups(
        self, query_states: np.ndarray, n_vertices: int
    ) -> list[tuple[tuple[int, ...], CandidateSet]]:
        """Fine-signature groups collapse-matching the query, per leg."""
        if self._index is not None:
            return self._index.coarse_groups(query_states, n_vertices)
        return self._scan_index(n_vertices).coarse_groups(query_states)

    # -- candidate generation --------------------------------------------------

    def _candidates(self, query: Subsequence) -> CandidateSet | None:
        # The int8 segment-state array goes straight to the index, which
        # radix-encodes it without building a tuple.
        if self._index is not None:
            return self._index.candidates(query.segment_states)
        return self._scan_index(query.n_vertices).candidates(
            query.segment_states
        )

    def _scan_index(self, n_vertices: int) -> LengthIndex:
        """The linear-scan leg (no index): a throwaway length index over
        every stream's windows, built for one lookup and dropped."""
        return LengthIndex.scan(self.database.iter_streams(), n_vertices)

    # -- filters ------------------------------------------------------------------

    def _admit(
        self,
        candidates: CandidateSet,
        query: Subsequence,
        query_stream_id: str | None,
        n_vertices: int,
        excluded: set[str] | None,
        allowed: set[str] | None,
        params: SimilarityParams,
    ) -> tuple[CandidateSet, np.ndarray, list[SourceRelation | None]] | None:
        """The rankable candidates, their source weights and the
        provenance per stream code; ``None`` when no candidate is left.

        Masks out same-stream windows overlapping the query window
        (``n_vertices`` is the candidates' window length: warped groups
        differ from the query's), excluded streams, and streams of
        patients outside ``allowed``.  Stream-level tests run once per
        interned name and expand to candidates by integer indexing.
        """
        names = candidates.names
        codes = candidates.codes
        mask = np.ones(candidates.n_candidates, dtype=bool)
        if query_stream_id is not None:
            hit = np.flatnonzero(names == query_stream_id)
            if len(hit):
                starts = candidates.starts
                mask &= ~(
                    (codes == hit[0])
                    & (starts < query.stop)
                    & (starts + n_vertices > query.start)
                )
        if excluded or allowed is not None:
            listed = names.tolist()
            name_ok = np.ones(len(listed), dtype=bool)
            if excluded:
                name_ok &= np.fromiter(
                    (nm not in excluded for nm in listed), bool, len(listed)
                )
            if allowed is not None:
                patient_of = self._patient_lookup(listed)
                name_ok &= np.fromiter(
                    (patient_of[str(nm)] in allowed for nm in listed),
                    bool,
                    len(listed),
                )
            mask &= name_ok[codes]
        n_admissible = int(np.count_nonzero(mask))
        if n_admissible == 0:
            return None
        if n_admissible < candidates.n_candidates:
            candidates = candidates.select(mask)
        codes = candidates.codes
        rel_of, weight_of, vanished = self._relations_by_code(
            codes, candidates.names, query_stream_id, params
        )
        if vanished:
            # A stream vanished between index catch-up and ranking
            # (concurrent removal).  Degrade gracefully: drop its
            # candidates rather than fail the whole retrieval; the next
            # lookup's epoch check purges the stale postings.
            live = np.fromiter(
                (r is not None for r in rel_of), bool, len(rel_of)
            )[codes]
            if not live.any():
                return None
            candidates = candidates.select(live)
            codes = candidates.codes
        return candidates, weight_of[codes], rel_of

    def _relations_by_code(
        self,
        codes: np.ndarray,
        names: np.ndarray,
        query_stream_id: str | None,
        params: SimilarityParams,
    ) -> tuple[list[SourceRelation | None], np.ndarray, bool]:
        """Provenance and source weight per interned stream code.

        Returns ``(relation_by_code, weight_by_code, vanished)`` indexed
        by code; only codes actually present in ``codes`` are evaluated
        (absent entries stay ``None``/``0.0`` and are never read).  A
        vanished stream (concurrent removal) leaves its relation ``None``
        and sets the flag.
        """
        n_names = len(names)
        rel_of: list[SourceRelation | None] = [None] * n_names
        weight_of = np.zeros(n_names)
        present = np.unique(codes).tolist()
        if query_stream_id is None:
            relation = SourceRelation.OTHER_PATIENT
            weight = float(params.source_weight(relation))
            for c in present:
                rel_of[c] = relation
                weight_of[c] = weight
            return rel_of, weight_of, False
        vanished = False
        for c in present:
            try:
                relation = self.database.relation(
                    query_stream_id, str(names[c])
                )
            except KeyError:
                vanished = True  # removed mid-retrieval
                continue
            rel_of[c] = relation
            weight_of[c] = params.source_weight(relation)
        return rel_of, weight_of, vanished

    def _patient_lookup(self, stream_ids: Iterable) -> dict[str, str | None]:
        """Owning patient per stream; ``None`` marks a vanished stream."""
        lookup: dict[str, str | None] = {}
        for sid in set(str(s) for s in stream_ids):
            try:
                lookup[sid] = self.database.stream(sid).patient_id
            except KeyError:
                lookup[sid] = None  # removed mid-retrieval: never allowed
        return lookup


def _lexicographic(names: np.ndarray) -> np.ndarray:
    """Each interned name's rank in lexicographic order.

    Intern tables are insertion-ordered but the ranking contract ties on
    the id *string*, so ranking keys map codes through these ranks.
    """
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[np.argsort(names)] = np.arange(len(names))
    return ranks
