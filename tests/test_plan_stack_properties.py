"""The live prediction stack as a state machine, against fresh stacks
and the frozen scalar loop.

``core/prediction.PlanStack`` is kept alive across serves: a restack
rewrites only the rows whose plan changed, and each match's cursor
(its current tail segment) is advanced in place instead of found again.
Random interleavings open rows, refresh a row with a new plan (often of
another capacity class), close rows, drop a row to no plan, list one
plan on several rows (the replay harness's shape), and serve at
horizons that step one frame, jump several tail vertices, go back, run
past the packed tail window and past the streams' ends.  After every
serve each row must equal, bit for bit, a freshly built stack over the
same plans and ``testing/oracle.reference_prediction`` over its matches.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import test_prediction_plan as plan_tests
from repro.core.prediction import PlanStack, build_prediction_plan
from repro.testing.oracle import reference_prediction

FRAME = 1.0 / 30.0

#: Match counts the pool's plans take: empty, inside the smallest
#: capacity class, and across the classes above it.
_SIZES = (0, 1, 5, 16, 17, 40, 64, 65, 130)

_SETUPS: list = []


def _setups():
    """A few random databases with their query and matches, built once."""
    if not _SETUPS:
        for seed in (3, 6, 20):
            db, matcher, query, matches = plan_tests.random_setup(
                seed, ndim=2, n_streams=24
            )
            _SETUPS.append((db, matcher.params, query, matches))
        assert min(len(setup[3]) for setup in _SETUPS) >= max(_SIZES)
    return _SETUPS


class Tenant:
    """One row's owner: the matches its plan packs, or no plan."""

    def __init__(self, spec, min_matches: int):
        self.min_matches = min_matches
        self.horizon = 0.0
        self.plan = None
        self.spec = None
        self.refresh(spec)

    def refresh(self, spec) -> None:
        """A new plan object, as a query refresh builds one."""
        self.spec = spec
        if spec is None:
            self.plan = None
            return
        db, params, query, matches = _setups()[spec[0]]
        self.plan = build_prediction_plan(
            db, query, matches[: spec[1]], params
        )

    def expected(self, horizon: float):
        db, params, query, matches = _setups()[self.spec[0]]
        return reference_prediction(
            db,
            query,
            matches[: self.spec[1]],
            horizon,
            params=params,
            min_matches=self.min_matches,
        )


specs = st.tuples(st.integers(0, 2), st.sampled_from(_SIZES))


class PlanStackMachine(RuleBasedStateMachine):
    @initialize(
        opened=st.lists(
            st.tuples(specs, st.integers(1, 3)), min_size=1, max_size=4
        )
    )
    def open_first(self, opened):
        self.tenants = [Tenant(spec, n) for spec, n in opened]
        self.stack = None

    def rows(self):
        """The tenants with a plan, in open order: the stack's rows."""
        return [tenant for tenant in self.tenants if tenant.plan is not None]

    @rule(
        opened=st.lists(
            st.tuples(specs, st.integers(1, 3)), min_size=1, max_size=3
        )
    )
    def open_rows(self, opened):
        self.tenants += [Tenant(spec, n) for spec, n in opened]

    @precondition(lambda self: self.tenants)
    @rule(data=st.data(), spec=specs)
    def refresh_row(self, data, spec):
        tenant = data.draw(st.sampled_from(self.tenants))
        tenant.refresh(spec)
        tenant.horizon = 0.0

    @precondition(lambda self: len(self.tenants) > 1)
    @rule(data=st.data())
    def close_row(self, data):
        self.tenants.remove(data.draw(st.sampled_from(self.tenants)))

    @precondition(lambda self: self.tenants)
    @rule(data=st.data())
    def drop_to_no_plan(self, data):
        data.draw(st.sampled_from(self.tenants)).refresh(None)

    @precondition(lambda self: any(t.plan is not None for t in self.tenants))
    @rule(data=st.data())
    def repeat_plan(self, data):
        """A second row over the very same plan object."""
        source = data.draw(st.sampled_from(self.rows()))
        twin = Tenant(None, source.min_matches)
        twin.spec, twin.plan = source.spec, source.plan
        twin.horizon = source.horizon
        self.tenants.append(twin)

    # One rule per horizon move, so that about half the steps serve.

    @rule()
    def serve_next_frame(self):
        self.serve(lambda tenant, a: tenant.horizon + FRAME, [0.0])

    @rule(amounts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def serve_jump_vertices(self, amounts):
        self.serve(lambda tenant, a: tenant.horizon + 1.0 + 4.0 * a, amounts)

    @rule(amounts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def serve_going_back(self, amounts):
        self.serve(lambda tenant, a: max(0.0, tenant.horizon - 3.0 * a), amounts)

    @rule(amounts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def serve_past_window(self, amounts):
        """Far enough that usable matches leave their packed tails."""
        self.serve(lambda tenant, a: 15.0 + 25.0 * a, amounts)

    @rule(amounts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def serve_past_stream_ends(self, amounts):
        self.serve(lambda tenant, a: 200.0 + 100.0 * a, amounts)

    def serve(self, move, amounts):
        rows = self.rows()
        if not rows:
            return
        for k, tenant in enumerate(rows):
            tenant.horizon = move(tenant, amounts[k % len(amounts)])
        plans = [tenant.plan for tenant in rows]
        mins = [tenant.min_matches for tenant in rows]
        if self.stack is None:
            self.stack = PlanStack(plans, mins)
        else:
            self.stack.restack(plans, mins)
        horizons = np.array([tenant.horizon for tenant in rows])
        served, counts, positions = self.stack.serve(horizons)
        f_served, f_counts, f_positions = PlanStack(plans, mins).serve(
            horizons
        )
        assert np.array_equal(served, f_served)
        assert np.array_equal(counts, f_counts)
        for k, tenant in enumerate(rows):
            expected = tenant.expected(float(horizons[k]))
            assert served[k] == (expected is not None)
            if expected is not None:
                assert positions[k].tobytes() == expected.tobytes()
                assert positions[k].tobytes() == f_positions[k].tobytes()


PlanStackMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestPlanStackStateMachine = PlanStackMachine.TestCase


def _assert_rows(stack, tenants, horizons):
    served, counts, positions = stack.serve(horizons)
    fresh = PlanStack(stack.plans, stack.min_matches).serve(horizons)
    assert np.array_equal(served, fresh[0])
    assert np.array_equal(counts, fresh[1])
    for k, tenant in enumerate(tenants):
        expected = tenant.expected(float(horizons[k]))
        assert served[k] == (expected is not None)
        if expected is not None:
            assert positions[k].tobytes() == expected.tobytes()


class TestPlanStackLifecycle:
    def test_empty_plan_row_declines_beside_live_rows(self):
        tenants = [Tenant((0, 0), 1), Tenant((1, 40), 1), Tenant((2, 0), 2)]
        stack = PlanStack([t.plan for t in tenants], [1, 1, 2])
        for h in (0.0, 0.5, 2.0, 30.0):
            horizons = np.full(3, h)
            served, counts, _ = stack.serve(horizons)
            assert not served[0] and not served[2]
            assert counts[0] == counts[2] == 0
            _assert_rows(stack, tenants, horizons)

    def test_repeated_plan_rows_keep_their_own_cursors(self):
        """One plan on three rows at three horizons, as replay stacks a
        plan per configured horizon; the rows then swap horizons."""
        tenant = Tenant((1, 130), 1)
        tenants = [tenant] * 3
        stack = PlanStack([tenant.plan] * 3, [1] * 3)
        for horizons in ([0.1, 0.8, 3.0], [0.2, 2.5, 3.1], [3.2, 0.3, 0.9]):
            _assert_rows(stack, tenants, np.array(horizons))

    def test_rebuild_after_more_than_half_the_cells_die(self):
        tenants = [Tenant((k % 3, 130), 1) for k in range(4)]
        tenants.append(Tenant((0, 5), 1))
        stack = PlanStack([t.plan for t in tenants], [1] * 5)
        _assert_rows(stack, tenants, np.full(5, 0.4))
        cells = stack._cells
        survivors = tenants[-2:]
        stack.restack([t.plan for t in survivors], [1, 1])
        assert stack._cells is not cells, "no rebuild"
        assert stack._cells.shape[1] < cells.shape[1]
        _assert_rows(stack, survivors, np.array([0.6, 5.0]))

    def test_class_change_takes_a_free_slot_without_rebuilding(self):
        """A rebuild leaves the narrowest classes spare slots: a row
        moving from 17 matches (32 cells) to 5 (16 cells) takes one."""
        sizes = [5] * 10 + [17] * 4 + [130]
        tenants = [Tenant((k % 3, n), 1) for k, n in enumerate(sizes)]
        stack = PlanStack([t.plan for t in tenants], [1] * len(sizes))
        horizons = np.full(len(sizes), 0.3)
        _assert_rows(stack, tenants, horizons)
        cells = stack._cells
        tenants[11].refresh((2, 5))
        stack.restack([t.plan for t in tenants], [1] * len(sizes))
        assert stack._cells is cells, "a spare slot should have fitted"
        _assert_rows(stack, tenants, horizons + FRAME)

    @pytest.mark.parametrize("horizons", [[0.0, 2.0], [40.0, 0.1]])
    def test_restack_to_the_same_rows_is_a_no_op(self, horizons):
        tenants = [Tenant((0, 64), 1), Tenant((1, 17), 2)]
        plans = [t.plan for t in tenants]
        stack = PlanStack(plans, [1, 2])
        _assert_rows(stack, tenants, np.array(horizons))
        stack.restack(list(plans), [1, 2])
        _assert_rows(stack, tenants, np.array(horizons) + 0.5)

    def test_non_finite_horizon_declines_and_the_next_serve_restarts(self):
        tenants = [Tenant((0, 130), 1)]
        stack = PlanStack([tenants[0].plan], [1])
        _assert_rows(stack, tenants, np.array([2.0]))
        for bad in (math.nan, math.inf):
            served, counts, _ = stack.serve(np.array([bad]))
            assert not served[0] and counts[0] == 0
            _assert_rows(stack, tenants, np.array([0.5]))
