"""Branch-and-bound MILP solver and the MILP backend dispatch.

:func:`solve_milp` is the single entry point for every MILP in the
platform; which engine actually runs is a :class:`BranchBoundOptions`
knob (or the ``REPRO_MILP_BACKEND`` environment variable):

``reference``
    The pure-Python branch and bound implemented in this module --
    classic LP-relaxation search with best-first node selection (by
    relaxation bound, FIFO among ties), most-fractional branching,
    incumbent-based pruning with absolute gap tolerance, and an
    optional *feasibility mode* (stop at the first integral solution)
    matching the paper's MILP1, which has no objective function. This
    is the correctness oracle the other backends are gated against.
``highs``
    :mod:`repro.milp.highs_backend` -- the whole model handed to
    HiGHS native branch and bound via ``scipy.optimize.milp``.

Both backends are exact, so they agree on feasibility verdicts and
optimal objective values; they need *not* agree on which optimal point
they return when the optimum is degenerate. Callers that must be
byte-identical across backends (reports, artifacts) re-derive a
canonical solution from the objective value -- see
:mod:`repro.core.binding`.

The reference solver is exact; node and iteration limits exist only as
safety rails and are reported through the solution status when hit. A
wall-clock deadline (``time_limit``) is the graceful-degradation rail:
when it expires the solver returns the best incumbent found so far
flagged ``timed_out`` instead of running unboundedly -- and with no
deadline set, the search path (node order, pruning, branching) is
bit-for-bit identical to a solver without the feature, a property the
equivalence gate in ``tests/resilience`` enforces.

Warm starts: ``solve_milp`` accepts an optional ``warm_values`` hint (a
variable -> value mapping, typically rebuilt from a cached binding).
Hints are *advisory*: each backend validates the hint against the
current model (:meth:`~repro.milp.model.StandardForm.check_point`) and
silently ignores anything stale or infeasible. A valid hint seeds the
reference solver's incumbent (pruning the tree above it) and bounds the
HiGHS solve through an objective cutoff; in feasibility mode it short-
circuits the solve outright.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.milp.expr import Variable
from repro.milp.model import Model
from repro.milp.solution import (
    LPStatus,
    SimplexResult,
    Solution,
    SolveStatus,
    solution_from_vector,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.resilience import maybe_slow_solver

__all__ = [
    "MILP_BACKENDS",
    "BranchBoundOptions",
    "solve_milp",
    "resolve_default_backend",
]

MILP_BACKENDS = ("reference", "highs")

_BACKEND_ENV = "REPRO_MILP_BACKEND"

_INT_TOL = 1e-6

# Bound at import: deadline tests replace this module's ``time`` with a
# fake monotonic clock, and LP accounting must keep working (and keep
# measuring real time) underneath them.
_perf_counter = time.perf_counter

# Solver observability: accumulated locally during the search and
# recorded ONCE per solve -- never per node, whose count is the one
# thing that must stay cheap. The LP-time histogram's ``backend``
# label splits reference relaxation time from whole HiGHS solves.
# Node counts stay unlabelled: the warm-start benchmark diffs the
# single family total across solves, and every backend reports into it.
_SOLVER_NODES = _metrics.counter(
    "repro_solver_nodes_total",
    "Branch-and-bound nodes explored across all solves.",
)
_SOLVER_INCUMBENTS = _metrics.counter(
    "repro_solver_incumbents_total",
    "Incumbent (best integer solution) updates across all solves.",
)
_SOLVER_LP_SECONDS = _metrics.histogram(
    "repro_solver_lp_seconds",
    "Total LP-relaxation wall-clock seconds per MILP solve.",
    ("backend",),
)


def resolve_default_backend() -> str:
    """The MILP backend used when options name none.

    Read from ``REPRO_MILP_BACKEND`` at solve time (not import time, so
    tests and CI matrix steps can flip it per process); defaults to the
    pure-Python reference solver.
    """
    backend = os.environ.get(_BACKEND_ENV, "").strip() or "reference"
    if backend not in MILP_BACKENDS:
        raise SolverError(
            f"unknown MILP backend {backend!r} (from ${_BACKEND_ENV}); "
            f"expected one of {MILP_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class BranchBoundOptions:
    """Tuning knobs for :func:`solve_milp`.

    Attributes
    ----------
    backend:
        ``"reference"``, ``"highs"``, or ``None`` to resolve
        ``REPRO_MILP_BACKEND`` at solve time (defaulting to
        ``"reference"``).
    node_limit:
        Maximum number of explored nodes before giving up.
    feasibility_only:
        Stop at the first integer-feasible solution; used for the paper's
        MILP1 (Eq. 10), which performs a pure feasibility check.
    absolute_gap:
        Prune nodes whose bound is within this of the incumbent.
    time_limit:
        Wall-clock deadline in seconds (``None`` disables, the
        default). When it expires mid-search the solver returns
        gracefully: the best incumbent so far as a ``FEASIBLE``
        solution flagged ``timed_out``, or a bare ``TIME_LIMIT``
        status when no incumbent exists yet. The deadline is checked
        per node, so one LP relaxation may overrun it; it bounds
        tail latency, not individual pivots.
    """

    node_limit: int = 200_000
    feasibility_only: bool = False
    absolute_gap: float = 1e-6
    time_limit: Optional[float] = None
    backend: Optional[str] = None

    def resolve_backend(self) -> str:
        """The effective MILP backend for this solve."""
        if self.backend is None:
            return resolve_default_backend()
        if self.backend not in MILP_BACKENDS:
            raise SolverError(
                f"unknown MILP backend {self.backend!r}; "
                f"expected one of {MILP_BACKENDS}"
            )
        return self.backend


@dataclass(order=True)
class _Node:
    bound: float
    order: int
    overrides: Dict[int, Tuple[float, float]] = field(compare=False)


def solve_milp(
    model: Model,
    options: Optional[BranchBoundOptions] = None,
    warm_values: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` to optimality (or first feasible point).

    Dispatches to the backend named by ``options`` (see module
    docstring); ``warm_values`` is an advisory warm-start hint.
    """
    options = options or BranchBoundOptions()
    backend = options.resolve_backend()
    accounting = {"lp_s": 0.0, "incumbents": 0}
    with _tracing.span(
        "solver.milp",
        backend=backend,
        feasibility_only=options.feasibility_only,
    ) as span_:
        if backend == "highs":
            from repro.milp.highs_backend import solve_milp_highs

            begin = _perf_counter()
            solution = solve_milp_highs(model, options, warm_values)
            accounting["lp_s"] = _perf_counter() - begin
        else:
            solution = _solve_impl(model, options, accounting, warm_values)
        span_.set_attr(
            nodes=solution.nodes,
            status=getattr(solution.status, "name", str(solution.status)),
            incumbents=accounting["incumbents"],
            lp_ms=round(accounting["lp_s"] * 1e3, 3),
        )
    _SOLVER_NODES.inc(solution.nodes)
    _SOLVER_LP_SECONDS.observe(accounting["lp_s"], backend=backend)
    if accounting["incumbents"]:
        _SOLVER_INCUMBENTS.inc(accounting["incumbents"])
    return solution


def _solve_impl(
    model: Model,
    options: BranchBoundOptions,
    accounting: Dict[str, Any],
    warm_values: Optional[Dict[Variable, float]] = None,
) -> Solution:
    deadline = (
        time.monotonic() + options.time_limit
        if options.time_limit is not None
        else None
    )
    form = model.to_standard_form()
    integer_indices = np.nonzero(form.integer_mask)[0]
    # Branch and bound re-solves one model with only variable bounds
    # changing between nodes, so the per-model conversion is hoisted
    # into ``make_lp_solver`` and each node passes just its bounds.
    from repro.milp.scipy_backend import make_lp_solver

    node_solver = make_lp_solver(form)

    # Warm start: a validated hint becomes the initial incumbent, so
    # every node whose relaxation bound is no better is pruned without
    # branching. With the hint rejected (stale binding after a suite
    # edit) the search below is bit-for-bit the cold search.
    from repro.milp.highs_backend import warm_vector

    warm_x = warm_vector(form, warm_values)
    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    if warm_x is not None:
        incumbent_x = warm_x
        incumbent_obj = float(form.objective @ warm_x)
        if options.feasibility_only:
            return _finish(SolveStatus.OPTIMAL, incumbent_x, incumbent_obj, form, 0)

    def relax(overrides: Dict[int, Tuple[float, float]]) -> SimplexResult:
        lower = form.lower.copy()
        upper = form.upper.copy()
        for index, (new_lower, new_upper) in overrides.items():
            lower[index] = max(lower[index], new_lower)
            upper[index] = min(upper[index], new_upper)
        begin = _perf_counter()
        result = node_solver(lower, upper)
        accounting["lp_s"] += _perf_counter() - begin
        return result

    root = relax({})
    if root.status is LPStatus.INFEASIBLE:
        return Solution(SolveStatus.INFEASIBLE, nodes=1)
    if root.status is LPStatus.UNBOUNDED:
        # With all integers bounded this still means the continuous part
        # is unbounded, hence the MILP is unbounded or infeasible; report
        # unbounded as linprog does.
        return Solution(SolveStatus.UNBOUNDED, nodes=1)

    heap: list[_Node] = [_Node(root.objective, 0, {})]
    lp_cache: Dict[int, SimplexResult] = {0: root}
    nodes_explored = 0
    next_order = 1

    while heap:
        node = heapq.heappop(heap)
        nodes_explored += 1
        # Injection point ``solver.slow`` (keyed by node ordinal):
        # stretches node latency so deadline tests fire deterministically
        # without depending on problem size. No-op without a FaultPlan.
        maybe_slow_solver(str(nodes_explored))
        if nodes_explored > options.node_limit:
            status = (
                SolveStatus.FEASIBLE if incumbent_x is not None
                else SolveStatus.NODE_LIMIT
            )
            return _finish(status, incumbent_x, incumbent_obj, form, nodes_explored)
        if deadline is not None and time.monotonic() >= deadline:
            status = (
                SolveStatus.FEASIBLE if incumbent_x is not None
                else SolveStatus.TIME_LIMIT
            )
            return _finish(
                status, incumbent_x, incumbent_obj, form, nodes_explored,
                timed_out=True,
            )
        if node.bound >= incumbent_obj - options.absolute_gap:
            continue
        relaxation = lp_cache.pop(node.order, None) or relax(node.overrides)
        if relaxation.status is not LPStatus.OPTIMAL:
            continue
        if relaxation.objective >= incumbent_obj - options.absolute_gap:
            continue
        x = relaxation.x
        fractional = _most_fractional(x, integer_indices)
        if fractional is None:
            incumbent_obj = relaxation.objective
            incumbent_x = x
            accounting["incumbents"] += 1
            if options.feasibility_only:
                return _finish(
                    SolveStatus.OPTIMAL, incumbent_x, incumbent_obj, form,
                    nodes_explored,
                )
            continue
        index, value = fractional
        floor_val = math.floor(value + _INT_TOL)
        for new_bounds in (
            (form.lower[index], float(floor_val)),
            (float(floor_val + 1), form.upper[index]),
        ):
            if new_bounds[0] > new_bounds[1]:
                continue
            overrides = dict(node.overrides)
            existing = overrides.get(index, (form.lower[index], form.upper[index]))
            merged = (max(existing[0], new_bounds[0]), min(existing[1], new_bounds[1]))
            if merged[0] > merged[1]:
                continue
            overrides[index] = merged
            child = relax(overrides)
            if child.status is not LPStatus.OPTIMAL:
                continue
            if child.objective >= incumbent_obj - options.absolute_gap:
                continue
            lp_cache[next_order] = child
            heapq.heappush(heap, _Node(child.objective, next_order, overrides))
            next_order += 1

    if incumbent_x is None:
        return Solution(SolveStatus.INFEASIBLE, nodes=nodes_explored)
    return _finish(
        SolveStatus.OPTIMAL, incumbent_x, incumbent_obj, form, nodes_explored
    )


def _most_fractional(
    x: np.ndarray, integer_indices: np.ndarray
) -> Optional[Tuple[int, float]]:
    """Pick the integer variable farthest from integrality, if any."""
    best_index = -1
    best_distance = _INT_TOL
    for index in integer_indices:
        value = x[index]
        distance = abs(value - round(value))
        if distance > best_distance:
            best_distance = distance
            best_index = int(index)
    if best_index < 0:
        return None
    return best_index, float(x[best_index])


def _finish(status, x, objective, form, nodes, timed_out: bool = False) -> Solution:
    return solution_from_vector(status, x, objective, form, nodes, timed_out)
