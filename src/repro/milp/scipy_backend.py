"""LP relaxation backend using scipy's HiGHS.

The reference branch and bound solves every LP relaxation here.

Branch-and-bound re-solves the *same* model thousands of times with only
variable bounds changing between nodes, so :func:`make_lp_solver`
prepares the per-model conversion once -- objective vector, sparse
constraint matrices -- and each node solve passes just its bounds.
:func:`solve_lp_scipy` remains the one-shot convenience entry point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.errors import SolverError
from repro.milp.solution import LPStatus, SimplexResult

__all__ = ["solve_lp_scipy", "make_lp_solver"]

NodeLPSolver = Callable[[np.ndarray, np.ndarray], SimplexResult]


def _from_linprog(result) -> SimplexResult:
    if result.status == 0:
        return SimplexResult(LPStatus.OPTIMAL, np.asarray(result.x), float(result.fun))
    if result.status == 2:
        return SimplexResult(LPStatus.INFEASIBLE, None, None)
    if result.status == 3:
        return SimplexResult(LPStatus.UNBOUNDED, None, None)
    raise SolverError(f"linprog failed: status={result.status} ({result.message})")


def solve_lp_scipy(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> SimplexResult:
    """Solve an LP with ``scipy.optimize.linprog`` (HiGHS method)."""
    bounds = list(zip(lower, upper))
    result = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    return _from_linprog(result)


def make_lp_solver(form) -> NodeLPSolver:
    """A bounds-only LP solver specialized to one model.

    ``form`` is the model's :class:`~repro.milp.model.StandardForm`. The
    objective and constraint matrices are converted (dense -> CSR) here,
    once; the returned callable takes only the per-node ``(lower,
    upper)`` arrays, which are the sole thing branch-and-bound mutates
    between node solves.
    """
    c = np.asarray(form.objective, dtype=float)
    a_ub = csr_matrix(form.a_ub) if form.a_ub.size else None
    b_ub = np.asarray(form.b_ub, dtype=float) if form.a_ub.size else None
    a_eq = csr_matrix(form.a_eq) if form.a_eq.size else None
    b_eq = np.asarray(form.b_eq, dtype=float) if form.a_eq.size else None

    def solve(lower: np.ndarray, upper: np.ndarray) -> SimplexResult:
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack((lower, upper)),
            method="highs",
        )
        return _from_linprog(result)

    return solve
