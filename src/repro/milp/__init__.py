"""Mixed-integer linear programming substrate.

The paper solves its crossbar feasibility and binding formulations with
ILOG CPLEX. This subpackage is the offline stand-in: a small modeling
layer (:class:`~repro.milp.model.Model`), a branch-and-bound MILP solver
(:mod:`repro.milp.branch_bound`) whose LP relaxations run on scipy's
HiGHS (:mod:`repro.milp.scipy_backend`), and solution/status objects.

:func:`~repro.milp.branch_bound.solve_milp` is the single entry point;
behind it sit two interchangeable backends (``reference`` -- the
pure-Python B&B and correctness oracle; ``highs`` -- the whole model
handed to HiGHS native branch and bound in
:mod:`repro.milp.highs_backend`) selected via
``BranchBoundOptions.backend`` or ``REPRO_MILP_BACKEND``.

The solvers are exact on the problem sizes the paper works with (at most
32 targets, a few thousand binaries) and are validated against brute-force
enumeration and each other (the backend equivalence gate) in the test
suite.
"""

from repro.milp.expr import LinExpr, Variable, VarType
from repro.milp.model import Constraint, Model, Sense, StandardForm
from repro.milp.solution import (
    LPStatus,
    SimplexResult,
    Solution,
    SolveStatus,
    solution_from_vector,
)
from repro.milp.scipy_backend import make_lp_solver, solve_lp_scipy
from repro.milp.branch_bound import (
    MILP_BACKENDS,
    BranchBoundOptions,
    resolve_default_backend,
    solve_milp,
)
from repro.milp.highs_backend import solve_milp_highs

__all__ = [
    "Variable",
    "VarType",
    "LinExpr",
    "Model",
    "Constraint",
    "Sense",
    "StandardForm",
    "Solution",
    "SolveStatus",
    "solution_from_vector",
    "LPStatus",
    "SimplexResult",
    "solve_lp_scipy",
    "make_lp_solver",
    "solve_milp",
    "solve_milp_highs",
    "BranchBoundOptions",
    "MILP_BACKENDS",
    "resolve_default_backend",
]
