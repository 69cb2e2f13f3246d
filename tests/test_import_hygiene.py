"""Import hygiene: the CLI and the daemon start without the solver stack.

``scipy.optimize`` costs about half a second of import time and only the
MILP backends need it, so :mod:`repro.milp` loads them on first use;
networkx is no dependency at all. Each check runs in a fresh interpreter,
where nothing this test process imported can hide a regression.
"""

import json
import os
import subprocess
import sys

import pytest

HEAVY = ("scipy", "scipy.optimize", "networkx")

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def loaded_after(body: str) -> list:
    """The :data:`HEAVY` modules a fresh interpreter holds after ``body``."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{body}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_cli(argv) -> str:
    return (
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


@pytest.mark.parametrize("module", ["repro.cli", "repro.server"])
def test_import_loads_no_solver_stack(module):
    assert loaded_after(f"import {module}") == []


def test_default_design_loads_no_scipy_optimize():
    assert "scipy.optimize" not in loaded_after(run_cli(["design", "des"]))


def test_milp_design_loads_the_backend_on_demand():
    loaded = loaded_after(run_cli(["design", "qsort", "--backend", "milp"]))
    assert "scipy.optimize" in loaded
    assert "networkx" not in loaded


def test_fresh_threshold_on_a_solved_graph_loads_no_scipy_optimize(tmp_path):
    """qsort induces one conflict graph at 30% and 31%: the second run
    loads the solved bindings from the cache directory and never solves."""
    argv = ["design", "qsort", "--backend", "milp", "--cache-dir",
            str(tmp_path), "--threshold"]
    assert "scipy.optimize" in loaded_after(run_cli([*argv, "0.30"]))
    assert "scipy.optimize" not in loaded_after(run_cli([*argv, "0.31"]))
