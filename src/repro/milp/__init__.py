"""Mixed-integer linear programming substrate.

The paper solves its crossbar feasibility and binding formulations with
ILOG CPLEX. This subpackage is the offline stand-in: a small modeling
layer (:class:`~repro.milp.model.Model`), a branch-and-bound MILP solver
(:mod:`repro.milp.branch_bound`) whose LP relaxations run on scipy's
HiGHS (:mod:`repro.milp.scipy_backend`), and solution/status objects.
The scipy-backed modules are imported on first use, so importing this
package does not load ``scipy``.

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

import importlib

from repro.milp.expr import LinExpr, Variable, VarType
from repro.milp.model import Constraint, Model, Sense, StandardForm
from repro.milp.solution import (
    LPResult,
    LPStatus,
    Solution,
    SolveStatus,
    solution_from_vector,
)
from repro.milp.branch_bound import (
    MILP_BACKENDS,
    BranchBoundOptions,
    resolve_default_backend,
    solve_milp,
)

# The scipy-backed modules load on first use: ``scipy.optimize`` costs
# about half a second of import time, and the default synthesis path
# (the assignment solver) never reaches it.
_LAZY = {
    "make_lp_solver": "repro.milp.scipy_backend",
    "solve_lp_scipy": "repro.milp.scipy_backend",
    "solve_milp_highs": "repro.milp.highs_backend",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


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
    "LPResult",
    "solve_lp_scipy",
    "make_lp_solver",
    "solve_milp",
    "solve_milp_highs",
    "BranchBoundOptions",
    "MILP_BACKENDS",
    "resolve_default_backend",
]
