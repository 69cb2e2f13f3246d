"""Pre-processing phase: the conflict matrix (paper Eq. 2).

Three rules forbid a pair of targets from sharing a bus:

* **threshold** -- their overlap exceeds ``overlap_threshold * WS`` in at
  least one window (Sec. 5); separating such pairs cuts worst-case
  latency and prunes the configuration search,
* **bandwidth** -- their combined demand exceeds ``WS`` in some window,
  so no bus could carry both (the Sec. 7.4 observation that overlap
  beyond 50% of a window is infeasible outright is the special case of
  this rule),
* **real-time** -- both carry critical streams that overlap in some
  window (Sec. 7.3); separation is what makes latency guarantees
  possible.

The resulting conflict graph also yields a clique-based lower bound on
the bus count, which tightens the binary search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import SynthesisConfig
from repro.profiling import track_phase

__all__ = ["ConflictAnalysis", "build_conflicts"]


def _max_clique_size(neighbours: Sequence[int]) -> int:
    """Size of the largest clique of a graph given as neighbour bitmasks.

    ``neighbours[v]`` has bit ``u`` set when ``u`` and ``v`` are
    adjacent. Bron--Kerbosch with pivoting, on int bitsets; a branch
    stops once it cannot beat the best clique found so far. Conflict
    graphs have at most a few dozen nodes, so this is instantaneous.
    """
    best = 0

    def expand(size: int, candidates: int, excluded: int) -> None:
        nonlocal best
        if not candidates:
            best = max(best, size)
            return
        if size + candidates.bit_count() <= best:
            return
        pool = candidates | excluded
        pivot = max(
            (v for v in range(len(neighbours)) if pool >> v & 1),
            key=lambda v: (candidates & neighbours[v]).bit_count(),
        )
        rest = candidates & ~neighbours[pivot]
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            expand(size + 1, candidates & neighbours[v],
                   excluded & neighbours[v])
            candidates &= ~bit
            excluded |= bit
            rest &= ~bit

    expand(0, (1 << len(neighbours)) - 1, 0)
    return best


@dataclass(frozen=True)
class ConflictAnalysis:
    """The conflict matrix plus provenance of every conflict pair.

    Attributes
    ----------
    matrix:
        Boolean symmetric ``(T, T)`` array; ``True`` forbids sharing.
    reasons:
        Maps each conflicting (ordered) pair to the rule names that
        produced it (``"threshold"``, ``"bandwidth"``, ``"real-time"``).
    """

    matrix: np.ndarray
    reasons: Dict[Tuple[int, int], FrozenSet[str]]

    @property
    def num_conflicts(self) -> int:
        """Number of conflicting pairs."""
        return len(self.reasons)

    def conflicting_pairs(self) -> List[Tuple[int, int]]:
        """All conflicting pairs, ordered."""
        return sorted(self.reasons)

    def clique_lower_bound(self) -> int:
        """Bus-count lower bound: size of the largest mutual-conflict
        clique (each member needs its own bus)."""
        if not self.reasons:
            return 1
        neighbours = [0] * self.matrix.shape[0]
        for i, j in self.reasons:
            neighbours[i] |= 1 << j
            neighbours[j] |= 1 << i
        return _max_clique_size(neighbours)


def build_conflicts(
    problem: CrossbarDesignProblem, config: SynthesisConfig
) -> ConflictAnalysis:
    """Run the pre-processing phase on a design problem.

    Both windowed rules are evaluated as whole-tensor array operations
    (one comparison over ``wo`` and one over the pairwise demand sums)
    instead of a Python loop over target pairs; only the resulting
    conflict pairs are walked to record provenance.
    """
    num_targets = problem.num_targets
    capacities = problem.capacities
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    reasons: Dict[Tuple[int, int], set] = {}

    def mark(i: int, j: int, rule: str) -> None:
        pair = (min(i, j), max(i, j))
        matrix[i, j] = matrix[j, i] = True
        reasons.setdefault(pair, set()).add(rule)

    with track_phase("conflicts"):
        threshold_cycles = config.overlap_threshold * capacities
        over_threshold = (problem.wo > threshold_cycles).any(axis=2)
        combined = problem.comm[:, None, :] + problem.comm[None, :, :]
        over_bandwidth = (combined > capacities).any(axis=2)
        candidates = np.triu(over_threshold | over_bandwidth, k=1)
        for i, j in np.argwhere(candidates):
            i, j = int(i), int(j)
            if over_threshold[i, j]:
                mark(i, j, "threshold")
            if over_bandwidth[i, j]:
                mark(i, j, "bandwidth")

        if config.use_criticality:
            for i, j in problem.criticality.conflicting_pairs:
                mark(i, j, "real-time")

    return ConflictAnalysis(
        matrix=matrix,
        reasons={pair: frozenset(rules) for pair, rules in reasons.items()},
    )
