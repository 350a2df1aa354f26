"""The warped-mode kernel keeps the bits of the full-grid DP.

``batch_warped_distance`` scores only the alignment cells a banded,
state-consistent path can use.  :func:`full_grid_warped_distance` below is
a frozen copy of the kernel it replaced, which filled the whole
``(nq, nc, n)`` cost tensor and ``(nq + 1, nc + 1, n)`` accumulator; every
distance the kernel returns must equal that kernel's byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import (
    MatchMode,
    SimilarityParams,
    batch_warped_distance,
    vertex_weights,
)


def full_grid_warped_distance(
    query_states,
    query_amplitudes,
    query_durations,
    candidate_states,
    candidate_amplitudes,
    candidate_durations,
    source_weights,
    params,
):
    """The full-grid banded-DTW kernel, kept verbatim as the bit oracle."""
    nq = len(query_states)
    nc = len(candidate_states)
    n_candidates = len(candidate_amplitudes)
    if n_candidates == 0:
        return np.empty(0, dtype=float)
    band = params.warp_band
    if nq < 1 or nc < 1 or abs(nq - nc) > band:
        return np.full(n_candidates, np.inf)

    weights = vertex_weights(
        nq, params.vertex_base_weight if params.use_vertex_weights else 1.0
    )
    q_amps = np.asarray(query_amplitudes, dtype=float)
    q_durs = np.asarray(query_durations, dtype=float)
    c_amps = np.asarray(candidate_amplitudes, dtype=float)
    c_durs = np.asarray(candidate_durations, dtype=float)

    amp_diff = np.abs(q_amps[:, None, None] - c_amps.T[None, :, :])
    dur_diff = np.abs(q_durs[:, None, None] - c_durs.T[None, :, :])
    cost = weights[:, None, None] * (
        params.amplitude_weight * amp_diff
        + params.frequency_weight * dur_diff
    )
    state_mismatch = (
        np.asarray(query_states, dtype=np.int64)[:, None]
        != np.asarray(candidate_states, dtype=np.int64)[None, :]
    )
    cost[state_mismatch] = np.inf

    acc = np.full((nq + 1, nc + 1, n_candidates), np.inf)
    acc[0, 0, :] = 0.0
    for i in range(1, nq + 1):
        lo = max(1, i - band)
        hi = min(nc, i + band)
        for j in range(lo, hi + 1):
            best = np.minimum(
                np.minimum(acc[i - 1, j], acc[i, j - 1]), acc[i - 1, j - 1]
            )
            acc[i, j] = cost[i - 1, j - 1] + best

    base = acc[nq, nc].copy()
    if params.normalize_inner_sum:
        base = base / weights.sum()
    if not params.use_source_weights:
        return base
    if params.source_weight_multiplies:
        return base * source_weights
    return base / source_weights


def _features(rng, n_rows, n_cols):
    """Continuous features, or coarse ones that force exact ties."""
    if rng.random() < 0.5:
        return rng.random((n_rows, n_cols)) * 20.0
    return rng.integers(0, 4, (n_rows, n_cols)) * 0.5


def _warp(rng, states, length):
    """``states`` stretched or squeezed to ``length`` by repeating or
    dropping runs' elements, so that in-band paths often exist."""
    picks = np.sort(rng.integers(0, len(states), length))
    picks[0], picks[-1] = 0, len(states) - 1
    return [states[p] for p in np.sort(picks)]


def assert_same_bits(args, params):
    got = batch_warped_distance(*args, params)
    want = full_grid_warped_distance(*args, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)
    return got


@settings(max_examples=400, deadline=None)
@given(
    band=st.integers(min_value=0, max_value=3),
    n_query=st.integers(min_value=1, max_value=9),
    length_offset=st.integers(min_value=-5, max_value=5),
    n_candidates=st.one_of(
        st.sampled_from([0, 1]), st.integers(min_value=2, max_value=40)
    ),
    n_states=st.integers(min_value=1, max_value=4),
    warped_states=st.booleans(),
    use_vertex_weights=st.booleans(),
    normalize_inner_sum=st.booleans(),
    use_source_weights=st.booleans(),
    source_weight_multiplies=st.booleans(),
    vertex_base_weight=st.floats(min_value=0.1, max_value=1.0),
    amplitude_weight=st.sampled_from([0.0, 0.25, 1.0, 1.7]),
    frequency_weight=st.sampled_from([0.0, 0.25, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_banded_kernel_matches_full_grid_bits(
    band,
    n_query,
    length_offset,
    n_candidates,
    n_states,
    warped_states,
    use_vertex_weights,
    normalize_inner_sum,
    use_source_weights,
    source_weight_multiplies,
    vertex_base_weight,
    amplitude_weight,
    frequency_weight,
    seed,
):
    """Every band, in-band and out-of-band lengths, consistent and
    inconsistent state sequences, 0, 1 and many candidates, and every
    weighting switch: the same bytes as the full-grid kernel."""
    rng = np.random.default_rng(seed)
    n_cand_segments = max(1, n_query + length_offset)
    query_states = rng.integers(0, n_states, n_query).tolist()
    if warped_states:
        candidate_states = _warp(rng, query_states, n_cand_segments)
    else:
        candidate_states = rng.integers(0, n_states, n_cand_segments).tolist()
    params = SimilarityParams(
        mode=MatchMode.WARPED,
        warp_band=band,
        use_vertex_weights=use_vertex_weights,
        normalize_inner_sum=normalize_inner_sum,
        use_source_weights=use_source_weights,
        source_weight_multiplies=source_weight_multiplies,
        vertex_base_weight=vertex_base_weight,
        amplitude_weight=amplitude_weight,
        frequency_weight=frequency_weight,
    )
    args = (
        np.asarray(query_states, dtype=np.int8),
        _features(rng, 1, n_query)[0],
        _features(rng, 1, n_query)[0],
        np.asarray(candidate_states, dtype=np.int8),
        _features(rng, n_candidates, n_cand_segments),
        _features(rng, n_candidates, n_cand_segments),
        rng.choice([1.0, 0.9, 0.3], n_candidates),
    )
    assert_same_bits(args, params)


@pytest.mark.parametrize("n_candidates", [0, 1, 25])
@pytest.mark.parametrize(
    "query_states, candidate_states, band",
    [
        ((0, 1), (1, 0), 0),  # diagonal mismatches
        ((0, 1, 2), (0, 2, 1), 1),  # the runs cross: no monotone path
        ((0, 0, 1), (0, 1, 1, 1, 1), 1),  # length pair beyond the band
        ((2,), (3,), 3),
    ],
)
def test_groups_without_a_state_consistent_path_are_all_inf(
    query_states, candidate_states, band, n_candidates
):
    rng = np.random.default_rng(7)
    nq, nc = len(query_states), len(candidate_states)
    args = (
        np.asarray(query_states, dtype=np.int8),
        rng.random(nq),
        rng.random(nq),
        np.asarray(candidate_states, dtype=np.int8),
        rng.random((n_candidates, nc)),
        rng.random((n_candidates, nc)),
        np.ones(n_candidates),
    )
    got = assert_same_bits(
        args, SimilarityParams(mode=MatchMode.WARPED, warp_band=band)
    )
    assert np.isinf(got).all() and len(got) == n_candidates
