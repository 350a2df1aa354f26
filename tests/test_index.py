"""Tests for the state-signature index."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.model import PLRSeries, Vertex
from repro.database.index import (
    MAX_RADIX_SEGMENTS,
    N_STATES,
    StateSignatureIndex,
    _coarse_key,
    _coarse_keys,
    _key_states,
    _window_keys,
    collapse_signature,
    decode_signature,
    encode_signature,
)
from repro.database.store import MotionDatabase

from conftest import EOE, EX, IN, make_series
from tests_support import regroup_index_buffers


def brute_force(db, signature):
    """All windows matching a signature, by direct scan."""
    m = len(signature) + 1
    hits = []
    for record in db.iter_streams():
        states = record.series.states
        for start in range(len(record.series) - m + 1):
            window = tuple(int(s) for s in states[start : start + m - 1])
            if window == tuple(signature):
                hits.append((record.stream_id, start))
    return sorted(hits)


@pytest.fixture
def db():
    database = MotionDatabase()
    database.add_patient("PA")
    database.add_patient("PB")
    database.add_stream("PA", "S00", series=make_series(4))
    database.add_stream("PB", "S00", series=make_series(3, period=4.0))
    return database


class TestIndex:
    def test_matches_brute_force(self, db):
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        candidates = index.candidates(signature)
        got = sorted(
            zip((str(s) for s in candidates.stream_ids), candidates.starts)
        )
        assert got == brute_force(db, signature)

    def test_unknown_signature_returns_none(self, db):
        index = StateSignatureIndex(db)
        assert index.candidates((int(EX), int(EX), int(EX))) is None

    def test_feature_rows_align(self, db):
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX))
        candidates = index.candidates(signature)
        for i in range(candidates.n_candidates):
            series = db.stream(str(candidates.stream_ids[i])).series
            start = int(candidates.starts[i])
            np.testing.assert_allclose(
                candidates.amplitudes[i], series.amplitudes[start : start + 2]
            )
            np.testing.assert_allclose(
                candidates.durations[i], series.durations[start : start + 2]
            )

    def test_incremental_growth(self, db):
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        before = index.candidates(signature).n_candidates
        series = db.stream("PA/S00").series
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        series.append(Vertex(t + 3.0, (0.0,), IN))
        after = index.candidates(signature).n_candidates
        assert after > before
        assert index.candidates(signature).n_candidates == after  # idempotent

    def test_stream_removal_triggers_rebuild(self, db):
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        index.candidates(signature)
        db.remove_stream("PB/S00")
        candidates = index.candidates(signature)
        assert all(str(s) != "PB/S00" for s in candidates.stream_ids)
        assert sorted(
            zip((str(s) for s in candidates.stream_ids), candidates.starts)
        ) == brute_force(db, signature)

    def test_new_stream_picked_up(self, db):
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        before = index.candidates(signature).n_candidates
        db.add_stream("PB", "S01", series=make_series(2))
        after = index.candidates(signature).n_candidates
        assert after > before

    def test_select_mask(self, db):
        index = StateSignatureIndex(db)
        candidates = index.candidates((int(IN), int(EX), int(EOE)))
        mask = np.zeros(candidates.n_candidates, dtype=bool)
        mask[0] = True
        subset = candidates.select(mask)
        assert subset.n_candidates == 1
        assert subset.starts[0] == candidates.starts[0]

    def test_bookkeeping_accessors(self, db):
        index = StateSignatureIndex(db)
        index.candidates((int(IN), int(EX), int(EOE)))
        assert index.indexed_lengths == (4,)
        assert index.n_postings(4) >= 1
        assert index.n_postings(99) == 0
        # Every window of every stream at length 4 is indexed.
        total = sum(
            max(0, len(r.series) - 4 + 1) for r in db.iter_streams()
        )
        assert index.n_windows(4) == total
        assert index.n_windows(99) == 0


def all_candidates(index, signature):
    """(stream_id, start) pairs the index returns, sorted."""
    candidates = index.candidates(signature)
    if candidates is None:
        return []
    return sorted(
        zip((str(s) for s in candidates.stream_ids), candidates.starts)
    )


class TestSignatureEncoding:
    def test_round_trip_radix(self):
        signature = (2, 0, 1, 3, 2, 0)
        key = encode_signature(signature)
        assert isinstance(key, int)
        assert decode_signature(key, len(signature)) == signature

    def test_injective_on_prefix_padding(self):
        # (2,) and (2, 0) must not collide even though 0 * 4 adds nothing:
        # keys are only compared within one window length, but the tuple
        # round-trip must still be exact.
        assert decode_signature(encode_signature((2, 0)), 2) == (2, 0)
        assert decode_signature(encode_signature((2,)), 1) == (2,)

    def test_round_trip_bytes_fallback(self):
        signature = tuple(i % 4 for i in range(MAX_RADIX_SEGMENTS + 5))
        key = encode_signature(signature)
        assert isinstance(key, int)
        assert decode_signature(key, len(signature)) == signature

    def test_one_integer_key_at_every_width(self):
        """Across the int64 edge (30 to 33 segments) and far past it,
        the key is the base-4 integer, decodes back, and the vectorised
        window keys equal it row by row."""
        rng = np.random.default_rng(15)
        for n_segments in range(71):
            states = rng.integers(0, N_STATES, n_segments + 24).astype(np.int8)
            states[:n_segments] = N_STATES - 1  # the widest key
            if n_segments:
                windows = sliding_window_view(states, n_segments)
            else:
                windows = np.empty((len(states), 0), dtype=np.int8)
            window_keys = _window_keys(windows)
            for row, window_key in zip(windows, window_keys):
                key = encode_signature(row)
                assert key == sum(
                    int(s) * N_STATES**i for i, s in enumerate(row)
                )
                assert decode_signature(key, n_segments) == tuple(
                    int(s) for s in row
                )
                assert window_key == key

    def test_vectorised_decode_and_collapse_agree_with_scalar(self):
        """``_key_states`` inverts the keys, and ``_coarse_keys`` (and its
        one-query form ``_coarse_key``) gives two rows one key exactly
        when ``collapse_signature`` agrees, at every width and across
        widths."""
        rng = np.random.default_rng(16)
        coarse_of, collapsed_of = {}, {}
        for n_segments in range(71):
            # Two states only, so that many rows collapse alike.
            states = rng.integers(0, 2, (40, n_segments)).astype(np.int8)
            states[0] = N_STATES - 1
            keys = _window_keys(states)
            np.testing.assert_array_equal(
                _key_states(keys, n_segments), states
            )
            for row, coarse in zip(states, _coarse_keys(states).tolist()):
                collapsed = collapse_signature(row)
                assert coarse_of.setdefault(collapsed, coarse) == coarse
                assert collapsed_of.setdefault(coarse, collapsed) == collapsed
                assert _coarse_key(row) == (coarse, len(collapsed))

    def test_ndarray_and_tuple_agree(self):
        signature = (1, 2, 0, 2)
        assert encode_signature(
            np.asarray(signature, dtype=np.int8)
        ) == encode_signature(signature)


class TestIncrementality:
    def test_catch_up_indexes_exactly_new_windows(self, db):
        """Appending after a lookup indexes the new windows — no
        duplicates, no gaps."""
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        assert all_candidates(index, signature) == brute_force(db, signature)
        series = db.stream("PA/S00").series
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        series.append(Vertex(t + 3.0, (0.0,), IN))
        series.append(Vertex(t + 4.0, (10.0,), EX))
        got = all_candidates(index, signature)
        assert got == brute_force(db, signature)
        assert len(got) == len(set(got))  # no duplicates
        # Idempotent: a second catch-up adds nothing.
        assert all_candidates(index, signature) == got

    def test_catch_up_after_removal_rebuild(self, db):
        """The stream-removal rebuild path re-indexes survivors exactly,
        and stays incremental afterwards."""
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        index.candidates(signature)
        db.remove_stream("PB/S00")
        assert all_candidates(index, signature) == brute_force(db, signature)
        series = db.stream("PA/S00").series
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        series.append(Vertex(t + 3.0, (0.0,), IN))
        got = all_candidates(index, signature)
        assert got == brute_force(db, signature)
        assert len(got) == len(set(got))

    def test_removal_of_unindexed_stream_keeps_index(self, db):
        """Removing a stream no length index touched must not rebuild."""
        db.add_stream("PB", "S01", series=make_series(2))
        index = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE), int(IN), int(EX))
        # Only streams long enough for 6 vertices are registered; the
        # 2-cycle stream (7 vertices) is — use a fresh one-cycle stream.
        db.add_stream("PB", "S02", series=make_series(1))
        index.candidates(signature)
        db.remove_stream("PB/S02")  # 4 vertices: never indexed at length 6
        assert all_candidates(index, signature) == brute_force(db, signature)

    def test_multiple_lengths_stay_consistent(self, db):
        index = StateSignatureIndex(db)
        short = (int(IN), int(EX))
        long = (int(IN), int(EX), int(EOE), int(IN))
        assert all_candidates(index, short) == brute_force(db, short)
        assert all_candidates(index, long) == brute_force(db, long)
        series = db.stream("PB/S00").series
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        assert all_candidates(index, short) == brute_force(db, short)
        assert all_candidates(index, long) == brute_force(db, long)

    def test_long_signature_bytes_path(self):
        """Signatures past the int64 key width are served end to end,
        through the batch catch-up and then the few-window one."""
        db = MotionDatabase()
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(cycles=14))
        index = StateSignatureIndex(db)
        n_segments = MAX_RADIX_SEGMENTS + 2
        series = db.stream("PA/S00").series
        signature = tuple(int(s) for s in series.states[:n_segments])
        got = all_candidates(index, signature)
        assert got == brute_force(db, signature)
        assert got  # the pattern repeats, so there are hits
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        series.append(Vertex(t + 3.0, (0.0,), IN))
        after = all_candidates(index, signature)
        assert after == brute_force(db, signature)
        assert len(after) > len(got)


class TestCoarseGroups:
    def _expected(self, db, query, m):
        """Exact-signature groups of ``m``-vertex windows collapsing like
        ``query``, as ``{states: [(stream, start), ...]}``."""
        groups = {}
        for record in db.iter_streams():
            states = record.series.states
            for start in range(len(record.series) - m + 1):
                window = tuple(int(s) for s in states[start : start + m - 1])
                if collapse_signature(window) == collapse_signature(query):
                    groups.setdefault(window, []).append(
                        (record.stream_id, start)
                    )
        return {k: sorted(v) for k, v in groups.items()}

    def _got(self, index, query, m):
        return {
            states: sorted(
                zip((str(s) for s in cands.stream_ids), cands.starts)
            )
            for states, cands in index.coarse_groups(query, m)
        }

    def test_keys_arriving_after_the_first_warped_lookup(self):
        """Several keys new to a length in one catch-up, after its coarse
        column was built (here on an empty store), all join their
        collapsed classes, whatever order they arrive in."""
        db = MotionDatabase()
        db.add_patient("PA")
        index = StateSignatureIndex(db)
        assert index.coarse_groups((int(IN),), 2) == []
        series = PLRSeries()
        for t, state in enumerate((IN, EOE, IN, IN, EX, EOE)):
            series.append(Vertex(float(t + 1), (float(t % 2),), state))
        db.add_stream("PA", "S00", series=series)
        queries = {(int(s),) for s in series.states}
        assert len(queries) > 2
        for query in sorted(queries):
            assert self._got(index, query, 2) == self._expected(db, query, 2)

    def test_groups_are_exact_signatures_in_key_order(self, db):
        index = StateSignatureIndex(db)
        query = (int(IN), int(EX), int(EOE))
        groups = index.coarse_groups(query, 5)
        assert [states for states, _ in groups] == sorted(
            (states for states, _ in groups), key=encode_signature
        )
        assert self._got(index, query, 5) == self._expected(db, query, 5)


class TestBufferRoundTrip:
    """Exported posting buffers survive ``save -> mmap -> restore`` with
    zero re-indexing (the snapshot storage contract)."""

    ARRAY_FIELDS = (
        "group_keys", "group_offsets", "stream_codes",
        "starts", "amplitudes", "durations",
    )

    def _mmap_round_trip(self, buffers, tmp_path):
        """Persist each exported array and hand back mmap'd views —
        exactly what ``LoggedBackend`` does inside a snapshot segment."""
        loaded = {}
        for n_vertices, state in buffers.items():
            entry = {
                "stream_names": list(state["stream_names"]),
                "next_start": dict(state["next_start"]),
            }
            for field in self.ARRAY_FIELDS:
                path = tmp_path / f"idx-{n_vertices}-{field}.npy"
                np.save(path, state[field])
                entry[field] = np.load(path, mmap_mode="r")
            loaded[n_vertices] = entry
        return loaded

    def _signatures(self, db, m):
        """Every distinct length-``m`` window signature in the database."""
        seen = set()
        for record in db.iter_streams():
            states = record.series.states
            for start in range(len(record.series) - m + 1):
                seen.add(tuple(int(s) for s in states[start : start + m - 1]))
        return sorted(seen)

    def test_restored_index_answers_without_rebuild(self, db, tmp_path):
        from repro.obs import Telemetry

        original = StateSignatureIndex(db)
        lengths = (3, 4, 5)
        for m in lengths:  # materialise several length indexes
            for signature in self._signatures(db, m):
                original.candidates(signature)

        buffers = self._mmap_round_trip(original.export_buffers(), tmp_path)

        telemetry = Telemetry()
        restored = StateSignatureIndex(db, telemetry=telemetry)
        assert restored.restore_buffers(buffers) == len(lengths)
        for m in lengths:
            for signature in self._signatures(db, m):
                assert all_candidates(restored, signature) == all_candidates(
                    original, signature
                )
        # The watermarks covered every window: nothing was re-indexed.
        windows = telemetry.registry.counter("index.windows_indexed")
        assert windows.value == 0

    def test_restored_index_passes_oracle_sweep(self, db, tmp_path):
        from repro.core.matching import SubsequenceMatcher
        from repro.core.similarity import SimilarityParams
        from repro.testing.oracle import check_equivalence, reference_matches

        original = StateSignatureIndex(db)
        for m in (3, 4):
            for signature in self._signatures(db, m):
                original.candidates(signature)
        buffers = self._mmap_round_trip(original.export_buffers(), tmp_path)

        restored = StateSignatureIndex(db)
        restored.restore_buffers(buffers)
        params = SimilarityParams()
        matcher = SubsequenceMatcher(db, params, index=restored)
        query_stream = db.stream_ids[0]
        series = db.stream(query_stream).series
        for m in (3, 4):
            for start in range(0, len(series) - m, 3):
                query = series.subsequence(start, start + m)
                engine = matcher.find_matches(
                    query, query_stream, threshold=math.inf
                )
                oracle = reference_matches(
                    db, query, query_stream,
                    threshold=math.inf, params=params,
                )
                check_equivalence(engine, oracle)

    def test_appends_after_restore_migrate_off_the_mmap(self, db, tmp_path):
        """Adopted buffers are read-only views; the first append past the
        watermark must copy the posting into writable storage."""
        original = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        original.candidates(signature)
        buffers = self._mmap_round_trip(original.export_buffers(), tmp_path)

        restored = StateSignatureIndex(db)
        restored.restore_buffers(buffers)
        before = all_candidates(restored, signature)
        series = db.stream("PA/S00").series
        t = series.end_time
        series.append(Vertex(t + 1.0, (10.0,), EX))
        series.append(Vertex(t + 2.0, (0.0,), EOE))
        series.append(Vertex(t + 3.0, (0.0,), IN))
        after = all_candidates(restored, signature)
        assert after == brute_force(db, signature)
        assert len(after) > len(before)

    def test_restore_skips_lengths_with_removed_streams(self, db, tmp_path):
        original = StateSignatureIndex(db)
        signature = (int(IN), int(EX), int(EOE))
        original.candidates(signature)
        buffers = self._mmap_round_trip(original.export_buffers(), tmp_path)

        db.remove_stream("PB/S00")
        restored = StateSignatureIndex(db)
        assert restored.restore_buffers(buffers) == 0
        # The skipped length rebuilds lazily and stays correct.
        assert all_candidates(restored, signature) == brute_force(db, signature)

    def test_creation_order_export_restores_like_a_sorted_one(
        self, db, tmp_path
    ):
        """Older snapshots list posting groups in creation order: one
        restores to the same candidates as the key-sorted export, and
        exports the key-sorted layout again."""
        original = StateSignatureIndex(db)
        lengths = (3, 4, 5)
        for m in lengths:
            for signature in self._signatures(db, m):
                original.candidates(signature)
        exported = original.export_buffers()
        creation_order = {
            m: regroup_index_buffers(
                state, np.arange(len(state["group_keys"]))[::-1]
            )
            for m, state in exported.items()
        }
        (tmp_path / "sorted").mkdir()
        (tmp_path / "creation").mkdir()
        from_sorted = StateSignatureIndex(db)
        from_sorted.restore_buffers(
            self._mmap_round_trip(exported, tmp_path / "sorted")
        )
        from_creation = StateSignatureIndex(db)
        from_creation.restore_buffers(
            self._mmap_round_trip(creation_order, tmp_path / "creation")
        )
        reexported = from_creation.export_buffers()
        for m in lengths:
            assert len(exported[m]["group_keys"]) > 1
            for signature in self._signatures(db, m):
                assert all_candidates(
                    from_creation, signature
                ) == all_candidates(from_sorted, signature)
            for field in self.ARRAY_FIELDS:
                np.testing.assert_array_equal(
                    reexported[m][field], exported[m][field]
                )

    def test_bytes_keyed_lengths_are_not_exported(self):
        db = MotionDatabase()
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(cycles=14))
        index = StateSignatureIndex(db)
        n_segments = MAX_RADIX_SEGMENTS + 2
        series = db.stream("PA/S00").series
        signature = tuple(int(s) for s in series.states[:n_segments])
        index.candidates(signature)
        assert index.export_buffers() == {}
