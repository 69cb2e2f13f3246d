"""Unit tests for the conflict-matrix pre-processing phase."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynthesisConfig, build_conflicts
from repro.core.preprocess import ConflictAnalysis

from tests.core.conftest import problem_from_activity


class TestThresholdRule:
    def test_heavy_overlap_conflicts(self):
        # both targets busy [0, 60) in a 100-cycle window: overlap 60%.
        problem = problem_from_activity(
            [[(0, 60)], [(0, 60)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig(overlap_threshold=0.3))
        assert analysis.matrix[0, 1]
        assert "threshold" in analysis.reasons[0, 1]

    def test_light_overlap_passes(self):
        # overlap is 10 cycles = 10% of the window
        problem = problem_from_activity(
            [[(0, 30)], [(20, 30)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig(overlap_threshold=0.3))
        assert (0, 1) not in analysis.reasons or (
            "threshold" not in analysis.reasons[0, 1]
        )

    def test_single_bad_window_suffices(self):
        # two quiet windows, one with 40% overlap: still a conflict
        problem = problem_from_activity(
            [[(200, 45)], [(200, 45)]], total_cycles=300, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig(overlap_threshold=0.3))
        assert analysis.matrix[0, 1]

    def test_threshold_is_strict(self):
        # overlap exactly at the threshold does not conflict
        problem = problem_from_activity(
            [[(0, 30)], [(0, 30)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig(overlap_threshold=0.3))
        assert ("threshold" not in analysis.reasons.get((0, 1), frozenset()))


class TestBandwidthRule:
    def test_fitting_pair_passes(self):
        # 60 + 40 = 100 <= 100: exactly fits one bus, no conflict
        problem = problem_from_activity(
            [[(0, 60)], [(60, 40)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig())
        assert not analysis.matrix[0, 1]

    def test_overflow_pair_conflicts_below_overlap_threshold(self):
        # 60 + 60 = 120 > 100 while overlapping only 20 cycles (20%),
        # safely under the 50% threshold: only the bandwidth rule fires.
        problem = problem_from_activity(
            [[(0, 60)], [(40, 60)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(
            problem, SynthesisConfig(overlap_threshold=0.5)
        )
        assert analysis.matrix[0, 1]
        assert analysis.reasons[0, 1] == frozenset({"bandwidth"})


class TestRealTimeRule:
    def test_overlapping_critical_streams_conflict(self):
        problem = problem_from_activity(
            [[(0, 30)], [(10, 30)]],
            total_cycles=100,
            window_size=100,
            criticals={0, 1},
        )
        analysis = build_conflicts(problem, SynthesisConfig())
        assert analysis.matrix[0, 1]
        assert "real-time" in analysis.reasons[0, 1]

    def test_criticality_can_be_disabled(self):
        problem = problem_from_activity(
            [[(0, 30)], [(10, 30)]],
            total_cycles=100,
            window_size=100,
            criticals={0, 1},
        )
        analysis = build_conflicts(
            problem, SynthesisConfig(use_criticality=False)
        )
        assert not analysis.matrix[0, 1]


class TestAnalysisProperties:
    def test_matrix_symmetric(self):
        problem = problem_from_activity(
            [[(0, 60)], [(0, 60)], [(50, 40)]],
            total_cycles=100,
            window_size=100,
        )
        analysis = build_conflicts(problem, SynthesisConfig())
        assert np.array_equal(analysis.matrix, analysis.matrix.T)
        assert not analysis.matrix.diagonal().any()

    def test_clique_lower_bound_counts_mutual_conflicts(self):
        # three mutually overlapping heavy targets -> clique of 3
        problem = problem_from_activity(
            [[(0, 60)]] * 3 + [[(70, 20)]],
            total_cycles=100,
            window_size=100,
        )
        analysis = build_conflicts(problem, SynthesisConfig())
        assert analysis.clique_lower_bound() == 3

    def test_no_conflicts_bound_is_one(self):
        problem = problem_from_activity(
            [[(0, 20)], [(50, 20)]], total_cycles=100, window_size=100
        )
        analysis = build_conflicts(problem, SynthesisConfig())
        assert analysis.clique_lower_bound() == 1
        assert analysis.num_conflicts == 0
        assert analysis.conflicting_pairs() == []


def _brute_force_clique(num_nodes, edges):
    """Largest vertex subset whose pairs are all edges (at least 1)."""
    best = 1
    for mask in range(1, 1 << num_nodes):
        members = [v for v in range(num_nodes) if mask >> v & 1]
        if len(members) > best and all(
            (i, j) in edges for i, j in combinations(members, 2)
        ):
            best = len(members)
    return best


@st.composite
def conflict_graphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    pairs = list(combinations(range(num_nodes), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    return num_nodes, {pair for pair, keep in zip(pairs, chosen) if keep}


class TestCliqueLowerBound:
    @given(conflict_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, graph):
        num_nodes, edges = graph
        matrix = np.zeros((num_nodes, num_nodes), dtype=bool)
        for i, j in edges:
            matrix[i, j] = matrix[j, i] = True
        analysis = ConflictAnalysis(
            matrix=matrix,
            reasons={pair: frozenset({"threshold"}) for pair in edges},
        )
        assert analysis.clique_lower_bound() == _brute_force_clique(
            num_nodes, edges
        )
