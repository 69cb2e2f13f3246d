"""The cross-backend equivalence gate (byte-identity).

Every MILP backend is exact and the binding layer canonicalizes optimal
solutions, so the *serialized* search/binding outputs -- what reports
and persisted artifacts are built from -- must be byte-identical across
``reference`` and ``highs``, and must match the default assignment
backend (whose deterministic DFS is the canonical form). This is what
licenses sharing binding artifacts across backends
(``binding_stage_spec`` deliberately omits ``milp_backend``) without
perturbing any output.
"""

import dataclasses
import json

import pytest

from repro.core import (
    SynthesisConfig,
    build_conflicts,
    optimize_binding,
    search_minimum_buses,
)
from repro.milp import MILP_BACKENDS

from tests.core.conftest import problem_from_activity


@pytest.fixture(scope="module")
def problem():
    """Six targets in two activity phases: feasible at 2 buses with a
    degenerate optimum -- the case where backends naturally disagree on
    points unless canonicalized."""
    activity = [
        [(0, 60), (200, 60)],
        [(100, 60), (300, 60)],
        [(0, 30), (210, 30)],
        [(110, 30), (310, 30)],
        [(40, 20), (260, 20)],
        [(140, 20), (360, 20)],
    ]
    return problem_from_activity(activity, total_cycles=400, window_size=100)


def _solve_serialized(problem, config):
    """The byte surface: JSON of the search outcome + optimized binding."""
    conflicts = build_conflicts(problem, config)
    search = search_minimum_buses(problem, conflicts, config)
    binding = optimize_binding(problem, conflicts, search.num_buses, config)
    return json.dumps(
        {
            "search": {
                "num_buses": search.num_buses,
                "feasible_binding": list(search.feasible_binding),
                "lower_bound": search.lower_bound,
                "probes": {str(k): v for k, v in search.probes.items()},
            },
            "binding": {
                "binding": list(binding.binding),
                "num_buses": binding.num_buses,
                "max_bus_overlap": binding.max_bus_overlap,
                "optimal": binding.optimal,
            },
        },
        sort_keys=True,
    ).encode()


class TestByteIdentity:
    def test_all_milp_backends_identical(self, problem):
        outputs = {
            backend: _solve_serialized(
                problem,
                SynthesisConfig(backend="milp", milp_backend=backend),
            )
            for backend in MILP_BACKENDS
        }
        reference = outputs["reference"]
        for backend, payload in outputs.items():
            assert payload == reference, f"{backend} diverged from reference"

    def test_milp_matches_assignment_backend(self, problem):
        # The canonicalization DFS *is* the assignment solver, so the
        # milp tier converges onto the default backend's exact bytes.
        assignment = _solve_serialized(problem, SynthesisConfig())
        milp = _solve_serialized(
            problem, SynthesisConfig(backend="milp", milp_backend="reference")
        )
        assert milp == assignment

    def test_warm_start_does_not_change_bytes(self, problem):
        config = SynthesisConfig(backend="milp", milp_backend="highs")
        conflicts = build_conflicts(problem, config)
        cold_search = search_minimum_buses(problem, conflicts, config)
        cold_binding = optimize_binding(
            problem, conflicts, cold_search.num_buses, config
        )
        warm_search = search_minimum_buses(
            problem, conflicts, config,
            warm_binding=cold_binding.binding,
        )
        warm_binding = optimize_binding(
            problem, conflicts, warm_search.num_buses, config,
            warm_binding=cold_binding.binding,
        )
        assert warm_search == cold_search
        assert warm_binding == cold_binding

    def test_stale_warm_hint_rejected_not_corrupting(self, problem):
        # A hint of the wrong length (edited suite changed target count)
        # must be ignored, leaving the outcome untouched.
        config = SynthesisConfig(backend="milp", milp_backend="reference")
        conflicts = build_conflicts(problem, config)
        cold = search_minimum_buses(problem, conflicts, config)
        stale = search_minimum_buses(
            problem, conflicts, config, warm_binding=(0, 0)
        )
        assert stale == cold


class TestConfigValidation:
    def test_unknown_milp_backend_rejected(self):
        from repro.errors import ConfigurationError

        for backend in ("cplex", "portfolio"):
            with pytest.raises(ConfigurationError):
                SynthesisConfig(milp_backend=backend)

    def test_milp_backend_excluded_from_stage_spec(self):
        from repro.pipeline.artifacts import binding_stage_spec

        config = SynthesisConfig(backend="milp")
        specs = {
            backend: binding_stage_spec(
                dataclasses.replace(config, milp_backend=backend)
            )
            for backend in MILP_BACKENDS
        }
        first = specs["reference"]
        assert all(spec == first for spec in specs.values())
