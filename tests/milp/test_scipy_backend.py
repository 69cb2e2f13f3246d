"""Unit and property tests for the scipy (HiGHS) LP relaxation engine.

Every LP case runs through both entry points: the one-shot
:func:`solve_lp_scipy` and the bounds-only node solver built by
:func:`make_lp_solver`, which is the path the reference branch and
bound takes at every node.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.milp import LPStatus, StandardForm, make_lp_solver, solve_lp_scipy


def _node_solve(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    form = StandardForm(
        objective=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        lower=lower, upper=upper,
        integer_mask=np.zeros(c.size, dtype=bool), variables=(),
    )
    return make_lp_solver(form)(lower, upper)


def solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lower=None, upper=None):
    """Solve one LP on both entry points; returns both results."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    args = (c, a_ub, b_ub, a_eq, b_eq, lower, upper)
    return [solve_lp_scipy(*args), _node_solve(*args)]


class TestKnownLPs:
    def test_simple_bounded_maximization(self):
        # min -x - y s.t. x + y <= 4, x <= 3, y <= 2
        for result in solve([-1, -1], a_ub=[[1, 1], [1, 0], [0, 1]], b_ub=[4, 3, 2]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(-4)

    def test_equality_constraint(self):
        for result in solve([1, 2], a_eq=[[1, 1]], b_eq=[10]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(10)
            np.testing.assert_allclose(result.x, [10, 0], atol=1e-7)

    def test_infeasible(self):
        # x <= 1 and x >= 3
        for result in solve([1], a_ub=[[1], [-1]], b_ub=[1, -3]):
            assert result.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        for result in solve([-1]):  # min -x, x >= 0 unbounded
            assert result.status is LPStatus.UNBOUNDED

    def test_variable_upper_bounds(self):
        for result in solve([-1, -1], upper=[2, 3]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(-5)

    def test_shifted_lower_bounds(self):
        for result in solve([1, 1], lower=[2, 3]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(5)

    def test_negative_lower_bounds(self):
        for result in solve([1], lower=[-5], upper=[5]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(-5)

    def test_free_variable_with_equality(self):
        # x free, y >= 0: min x s.t. x + y == 2, x >= -7 via x free
        for result in solve(
            [1, 0],
            a_eq=[[1, 1]],
            b_eq=[2],
            lower=[-np.inf, 0],
            upper=[np.inf, np.inf],
        ):
            assert result.status is LPStatus.UNBOUNDED

    def test_free_variable_bounded_by_rows(self):
        for result in solve(
            [1],
            a_ub=[[-1]],
            b_ub=[4],  # -x <= 4  ->  x >= -4
            lower=[-np.inf],
            upper=[np.inf],
        ):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(-4)

    def test_degenerate_does_not_cycle(self):
        # Classic degenerate LP on which naive simplex pivoting cycles.
        for result in solve(
            [-0.75, 150, -0.02, 6],
            a_ub=[
                [0.25, -60, -0.04, 9],
                [0.5, -90, -0.02, 3],
                [0, 0, 1, 0],
            ],
            b_ub=[0, 0, 1],
        ):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(-0.05)

    def test_inverted_bounds_infeasible(self):
        for result in solve([1], lower=[3], upper=[1]):
            assert result.status is LPStatus.INFEASIBLE

    def test_redundant_rows_handled(self):
        for result in solve([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[4, 8]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(4)

    def test_no_constraints_zero_cost(self):
        for result in solve([0, 0]):
            assert result.status is LPStatus.OPTIMAL
            assert result.objective == pytest.approx(0)


@st.composite
def random_lp(draw):
    """Random LP with bounded variables (so never unbounded)."""
    num_vars = draw(st.integers(1, 5))
    num_rows = draw(st.integers(0, 5))
    ints = st.integers(-6, 6)
    c = [draw(ints) for _ in range(num_vars)]
    a = [[draw(ints) for _ in range(num_vars)] for _ in range(num_rows)]
    b = [draw(st.integers(-10, 20)) for _ in range(num_rows)]
    upper = [draw(st.integers(0, 8)) for _ in range(num_vars)]
    return c, a, b, upper


@st.composite
def random_equality_lp(draw):
    num_vars = draw(st.integers(2, 5))
    num_eq = draw(st.integers(1, 2))
    num_ub = draw(st.integers(0, 3))
    ints = st.integers(-4, 4)
    c = [draw(ints) for _ in range(num_vars)]
    a_eq = [[draw(ints) for _ in range(num_vars)] for _ in range(num_eq)]
    # build a guaranteed-feasible rhs from a random non-negative point
    x0 = [draw(st.integers(0, 3)) for _ in range(num_vars)]
    b_eq = [sum(a * x for a, x in zip(row, x0)) for row in a_eq]
    a_ub = [[draw(ints) for _ in range(num_vars)] for _ in range(num_ub)]
    b_ub = [
        sum(a * x for a, x in zip(row, x0)) + draw(st.integers(0, 5))
        for row in a_ub
    ]
    upper = [draw(st.integers(3, 8)) for _ in range(num_vars)]
    return c, a_eq, b_eq, a_ub, b_ub, upper, x0


class TestRandomLPs:
    @settings(max_examples=60, deadline=None)
    @given(random_lp())
    def test_solution_is_feasible(self, lp):
        c, a, b, upper = lp
        n = len(c)
        a_ub = np.array(a, dtype=float).reshape(len(b), n)
        b_ub = np.array(b, dtype=float)
        result = _node_solve(
            np.array(c, dtype=float), a_ub, b_ub,
            np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.array(upper, dtype=float),
        )
        if result.status is LPStatus.OPTIMAL:
            x = result.x
            assert (x >= -1e-7).all()
            assert (x <= np.array(upper) + 1e-7).all()
            if len(b):
                assert (a_ub @ x <= b_ub + 1e-6).all()

    @settings(max_examples=50, deadline=None)
    @given(random_equality_lp())
    def test_solution_satisfies_equalities(self, lp):
        c, a_eq, b_eq, a_ub, b_ub, upper, x0 = lp
        n = len(c)
        # the witness point is feasible iff it respects the upper bounds;
        # restrict to instances where it does, so OPTIMAL is guaranteed
        if any(x > u for x, u in zip(x0, upper)):
            return
        result = _node_solve(
            np.array(c, dtype=float),
            np.array(a_ub, dtype=float).reshape(len(b_ub), n),
            np.array(b_ub, dtype=float),
            np.array(a_eq, dtype=float).reshape(len(b_eq), n),
            np.array(b_eq, dtype=float),
            np.zeros(n),
            np.array(upper, dtype=float),
        )
        assert result.status is LPStatus.OPTIMAL
        for row, rhs in zip(a_eq, b_eq):
            assert sum(a * x for a, x in zip(row, result.x)) == pytest.approx(
                rhs, abs=1e-6
            )
