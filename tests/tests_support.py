"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np


def clean_cycles(n_cycles=8, period=4.0, amplitude=10.0, rate=30.0):
    """Noise-free raised-cosine breathing (IN 30%, EX 40%, EOE 30%)."""
    t = np.arange(int(n_cycles * period * rate)) / rate
    phase = (t % period) / period
    x = np.zeros_like(t)
    rise = phase < 0.3
    x[rise] = amplitude * 0.5 * (1 - np.cos(np.pi * phase[rise] / 0.3))
    fall = (phase >= 0.3) & (phase < 0.7)
    x[fall] = amplitude * 0.5 * (1 + np.cos(np.pi * (phase[fall] - 0.3) / 0.4))
    return t, x


def regroup_index_buffers(state, order):
    """One length's exported index buffers with the posting groups (keys
    and their row blocks) rearranged into ``order``: the creation-order
    layout older snapshot generations carry."""
    keys = np.asarray(state["group_keys"])
    offsets = np.asarray(state["group_offsets"])
    order = np.asarray(order, dtype=np.int64)
    rows = np.concatenate(
        [np.arange(offsets[g], offsets[g + 1]) for g in order]
        + [np.empty(0, dtype=np.int64)]
    )
    return {
        **state,
        "group_keys": keys[order],
        "group_offsets": np.concatenate(
            ([0], np.cumsum(np.diff(offsets)[order]))
        ).astype(np.int64),
        **{
            field: np.asarray(state[field])[rows]
            for field in ("stream_codes", "starts", "amplitudes", "durations")
        },
    }
