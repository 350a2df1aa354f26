"""The signature index as a state machine, against brute-force grouping.

Random interleavings of stream adds, vertex appends, lookups
(``candidates``, ``coarse_groups``, ``posting_groups``) at several window
lengths, export -> mmap round trip -> restore into a fresh index, and
stream removal.  After every step each lookup must equal a grouping of
the current series computed window by window, compared as sets of
``(stream, start)`` with their feature rows.  Exports are restored either
as written (keys ascending) or with their groups shuffled into an
arbitrary order, the layout older snapshot generations carry.

The database under test runs on the backend selected by
``REPRO_TEST_BACKEND``.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    rule,
)

from repro.core.model import BreathingState, PLRSeries, Vertex
from repro.database.index import (
    StateSignatureIndex,
    collapse_signature,
    decode_signature,
)

from conftest import make_test_database
from tests_support import regroup_index_buffers

_STATES = (
    BreathingState.IN,
    BreathingState.EX,
    BreathingState.EOE,
    BreathingState.IRR,
)

#: Window vertex counts the machine queries.
_LENGTHS = (2, 3, 4, 6)

_ARRAY_FIELDS = (
    "group_keys",
    "group_offsets",
    "stream_codes",
    "starts",
    "amplitudes",
    "durations",
)


def _row(stream_id, start, amplitudes, durations):
    return (
        stream_id,
        int(start),
        np.asarray(amplitudes, dtype=float).tobytes(),
        np.asarray(durations, dtype=float).tobytes(),
    )


def brute_force_groups(db, n_vertices):
    """Every window of ``n_vertices`` vertices, grouped by its exact
    segment-state tuple, walked one window at a time."""
    n_segments = n_vertices - 1
    groups = {}
    for record in db.iter_streams():
        series = record.series
        states = series.states
        for start in range(len(series) - n_vertices + 1):
            window = slice(start, start + n_segments)
            signature = tuple(int(s) for s in states[window])
            groups.setdefault(signature, set()).add(
                _row(
                    record.stream_id,
                    start,
                    series.amplitudes[window],
                    series.durations[window],
                )
            )
    return groups


def candidate_rows(candidates):
    if candidates is None:
        return set()
    names = candidates.stream_ids
    return {
        _row(
            str(names[i]),
            candidates.starts[i],
            candidates.amplitudes[i],
            candidates.durations[i],
        )
        for i in range(candidates.n_candidates)
    }


def mmap_round_trip(buffers, directory, shuffle_seed=None):
    """Save an export and load it back memory-mapped, as a snapshot does.

    With ``shuffle_seed`` the groups are first put in a random order
    (rows moved with them), the creation-order layout of older exports.
    """
    loaded = {}
    for n_vertices, state in buffers.items():
        if shuffle_seed is not None:
            rng = np.random.default_rng(shuffle_seed)
            order = rng.permutation(len(state["group_keys"]))
            state = regroup_index_buffers(state, order)
        entry = {
            "stream_names": list(state["stream_names"]),
            "next_start": dict(state["next_start"]),
        }
        for field in _ARRAY_FIELDS:
            path = Path(directory) / f"idx-{n_vertices}-{field}.npy"
            np.save(path, state[field])
            entry[field] = np.load(path, mmap_mode="r")
        loaded[n_vertices] = entry
    return loaded


class IndexMachine(RuleBasedStateMachine):
    streams = Bundle("streams")

    @initialize()
    def open(self):
        self.db = make_test_database()
        self.db.add_patient("P0")
        self.index = StateSignatureIndex(self.db)
        self.clocks = {}
        self.tmp = tempfile.TemporaryDirectory(prefix="repro-index-sm-")
        self.n_round_trips = 0

    def teardown(self):
        close = getattr(self.db, "close", None)
        if close is not None:
            close()
        self.tmp.cleanup()

    @rule(
        target=streams,
        idx=st.integers(0, 2),
        initial=st.lists(st.integers(0, 3), max_size=12),
    )
    def add_stream(self, idx, initial):
        sid = f"P0/S{idx:02d}"
        if sid not in self.db:
            series = PLRSeries()
            t = self.clocks.get(sid, 0.0)
            for i, state in enumerate(initial):
                t += 1.0
                series.append(Vertex(t, (float(i % 5),), _STATES[state]))
            self.clocks[sid] = t
            self.db.add_stream("P0", f"S{idx:02d}", series=series, stream_id=sid)
        return sid

    @rule(
        sid=streams,
        states=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    )
    def append(self, sid, states):
        if sid not in self.db:
            return
        series = self.db.stream(sid).series
        t = self.clocks[sid]
        batch = []
        for state in states:
            t += 1.0
            batch.append(Vertex(t, (float(len(series) % 7),), _STATES[state]))
            series.append(batch[-1])
        self.clocks[sid] = t
        self.db.commit_vertices(sid, batch)

    @rule(sid=streams)
    def remove(self, sid):
        if sid in self.db:
            self.db.remove_stream(sid)

    @rule(
        n_vertices=st.sampled_from(_LENGTHS),
        miss=st.integers(0, 4**5 - 1),
    )
    def lookup(self, n_vertices, miss):
        """Every signature present at this length, and one drawn one."""
        expected = brute_force_groups(self.db, n_vertices)
        drawn = tuple((miss >> (2 * i)) & 3 for i in range(n_vertices - 1))
        for signature in [*expected, drawn]:
            got = self.index.candidates(signature)
            assert candidate_rows(got) == expected.get(signature, set())

    @rule(
        n_vertices=st.sampled_from(_LENGTHS),
        query=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    )
    def coarse_lookup(self, n_vertices, query):
        """Every collapsed class present at this length (queried by its
        collapsed signature itself), and one drawn query of any length."""
        groups = brute_force_groups(self.db, n_vertices)
        classes = {collapse_signature(signature) for signature in groups}
        for signature in [*sorted(classes), tuple(query)]:
            target = collapse_signature(signature)
            expected = {
                states: rows
                for states, rows in groups.items()
                if collapse_signature(states) == target
            }
            found = self.index.coarse_groups(signature, n_vertices)
            got = {states: candidate_rows(cands) for states, cands in found}
            assert len(got) == len(found)  # one entry per fine signature
            assert got == expected

    @rule(n_vertices=st.sampled_from(_LENGTHS))
    def bulk_groups(self, n_vertices):
        groups = self.index.posting_groups(n_vertices)
        keys = [key for key, _ in groups]
        assert keys == sorted(set(keys))
        got = {
            decode_signature(key, n_vertices - 1): candidate_rows(cands)
            for key, cands in groups
        }
        expected = brute_force_groups(self.db, n_vertices)
        assert got == expected
        assert self.index.n_postings(n_vertices) == len(expected)
        assert self.index.n_windows(n_vertices) == sum(
            len(rows) for rows in expected.values()
        )

    @rule(shuffle=st.one_of(st.none(), st.integers(0, 2**16)))
    def export_and_restore(self, shuffle):
        buffers = self.index.export_buffers()
        directory = Path(self.tmp.name) / f"rt-{self.n_round_trips}"
        directory.mkdir()
        self.n_round_trips += 1
        for state in buffers.values():
            keys = np.asarray(state["group_keys"])
            assert np.all(keys[1:] > keys[:-1])  # exports are key-sorted
        fresh = StateSignatureIndex(self.db)
        fresh.restore_buffers(mmap_round_trip(buffers, directory, shuffle))
        self.index = fresh


IndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestIndexStateMachine = IndexMachine.TestCase
