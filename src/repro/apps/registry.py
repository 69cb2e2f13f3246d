"""Application registry: name -> builder."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.apps.des import build_des
from repro.apps.descriptor import Application
from repro.apps.fft import build_fft
from repro.apps.matrix import build_mat1, build_mat2
from repro.apps.qsort import build_qsort
from repro.apps.synthetic import build_synthetic
from repro.errors import ApplicationError
from repro.traffic.trace import TrafficTrace

if TYPE_CHECKING:
    from repro.pipeline.artifacts import CollectRun

__all__ = [
    "APPLICATIONS",
    "build_application",
    "default_full_crossbar_run",
    "default_full_crossbar_trace",
]

APPLICATIONS: Dict[str, Callable[..., Application]] = {
    "mat1": build_mat1,
    "mat2": build_mat2,
    "fft": build_fft,
    "qsort": build_qsort,
    "des": build_des,
    "synthetic": build_synthetic,
}
"""Builders for every benchmark in the paper's evaluation."""


def build_application(name: str, **kwargs) -> Application:
    """Build a benchmark application by registry name.

    Extra keyword arguments are forwarded to the specific builder (e.g.
    ``critical_targets`` or, for ``synthetic``, ``burst_cycles``).

    A *default* build (no keyword overrides) is tagged with its
    ``registry_key``, marking that ``build_application(key)`` in another
    process reproduces this exact application -- the property the
    execution engine's parallel evaluation path requires. Customized
    builds carry no key and are always evaluated in-process.
    """
    try:
        builder = APPLICATIONS[name]
    except KeyError:
        known = ", ".join(sorted(APPLICATIONS))
        raise ApplicationError(
            f"unknown application {name!r}; available: {known}"
        ) from None
    application = builder(**kwargs)
    if not kwargs:
        application = replace(application, registry_key=name)
    return application


_DEFAULT_RUNS: Dict[str, "CollectRun"] = {}


def default_full_crossbar_run(
    name: str, cache_dir: Optional[str] = None
) -> "CollectRun":
    """The Phase-1 full-crossbar run of a *default* registry build: its
    trace and latency statistics.

    The one collect entry point. Looked up in order: the per-process
    memo (the platform simulation is deterministic, and scenario
    suites, sweeps, examples and daemon jobs repeatedly need the stock
    applications' traffic; the artifact is immutable, so sharing is
    safe), then the ``collect-run`` stage persisted under ``cache_dir``
    (when given), then a simulation, which fills both. Builds with
    keyword overrides are not cached; simulate those explicitly.
    """
    run = _DEFAULT_RUNS.get(name)
    if run is None:
        from repro.pipeline import PipelineRunner

        runner = PipelineRunner.for_cache_dir(cache_dir)
        run = runner.collect_run(build_application(name))
        _DEFAULT_RUNS[name] = run
    return run


def default_full_crossbar_trace(
    name: str, cache_dir: Optional[str] = None
) -> TrafficTrace:
    """The trace of :func:`default_full_crossbar_run`."""
    return default_full_crossbar_run(name, cache_dir).trace
