"""Span tracer the benchmark wraps around ``repro``'s public entry points.

Run as a drop-in for ``python -m repro``::

    PERFBENCH_SPANS=DIR python3 perfbench/tracer.py design mat2

Before handing ``argv`` to :func:`repro.cli.main`, it replaces each
traced entry point (a module function or a class method) with a wrapper
that records one span: name, start, end, parent span, request id and
pid. Spans and counts stay in memory and are written to
``DIR/spans-<pid>-<token>.json`` when the process ends. Forked pool workers
inherit the wrappers and write their own file when they exit.

The program itself is not modified: the wrappers live in this file and
only exist in processes started through it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import uuid
from pathlib import Path

# (module, qualified attribute, span name). Module functions are also
# rebound wherever another ``repro`` module imported them by name.
ENTRY_POINTS = (
    ("repro.apps.descriptor", "Application.simulate_full_crossbar", "sim.collect"),
    ("repro.apps.descriptor", "Application.simulate", "sim.simulate"),
    ("repro.analysis.compare", "compare_designs", "sim.compare"),
    ("repro.platform.soc", "SoC.run", "sim.run"),
    ("repro.pipeline.runner", "PipelineRunner.window", "traffic.window"),
    ("repro.core.preprocess", "build_conflicts", "core.conflicts"),
    ("repro.core.search", "search_minimum_buses", "core.search"),
    ("repro.core.binding", "optimize_binding", "core.bind"),
    ("repro.milp.branch_bound", "solve_milp", "milp.solve"),
    ("repro.pipeline.store", "ArtifactStore.get_arrays", "pipeline.store"),
    ("repro.pipeline.store", "ArtifactStore.put_arrays", "pipeline.store"),
    ("repro.pipeline.store", "ArtifactStore.get_payload", "pipeline.store"),
    ("repro.pipeline.store", "ArtifactStore.put_payload", "pipeline.store"),
    ("repro.exec.engine", "ExecutionEngine.run_sweep", "exec.run_sweep"),
    ("repro.exec.engine", "ExecutionEngine.run_batch", "exec.run_batch"),
    ("repro.exec.engine", "ExecutionEngine.run_replay_batch", "exec.run_replay_batch"),
    ("repro.exec.engine", "ExecutionEngine.evaluate_designs", "exec.evaluate_designs"),
    ("repro.scenarios.runner", "ScenarioSuiteRunner.run", "scenarios.run"),
    ("repro.pipeline.runner", "PipelineRunner.bind_merged", "scenarios.merge_bind"),
    ("repro.server.service", "SynthesisService._execute", "server.job"),
)


class Recorder:
    """In-memory span and count store of one process."""

    def __init__(self, out_dir: str, request: str) -> None:
        self.out_dir = out_dir
        self.request = request
        self._reset()

    # -- per-process state ---------------------------------------------

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.key = f"{self.pid}-{uuid.uuid4().hex[:8]}"
        self.spans = []
        self.counts = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _check_fork(self) -> None:
        """A forked worker starts with an empty store of its own and
        writes it when the worker exits (multiprocessing finalizers run
        on a worker's normal exit; ``atexit`` does not)."""
        if os.getpid() == self.pid:
            return
        from multiprocessing import util

        self._reset()
        util.Finalize(None, self.write, exitpriority=100)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        """Record a timestamped count event (summed when the run ends)."""
        self._check_fork()
        with self._lock:
            self.counts.append((time.perf_counter(), key, amount))

    def begin(self, name: str, request: str = None) -> dict:
        self._check_fork()
        stack = self.stack()
        with self._lock:
            self._next_id += 1
            span_id = f"{self.key}-{self._next_id}"
        parent = stack[-1] if stack else None
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request
            or (parent["request"] if parent else self.request),
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def mark(self, key: str) -> None:
        """Flag the innermost open span (used to tell computed window
        analyses from cache hits)."""
        stack = self.stack()
        if stack:
            stack[-1][key] = True

    def write(self) -> None:
        with self._lock:
            payload = {"pid": self.pid, "spans": list(self.spans),
                       "counts": list(self.counts)}
        path = Path(self.out_dir) / f"spans-{self.key}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


# Positional index of the task list in each engine entry point's call.
_TASK_ARG = {"exec.run_sweep": 2, "exec.evaluate_designs": 2,
             "exec.run_batch": 1, "exec.run_replay_batch": 1}


def _span_wrapper(recorder: Recorder, name: str, func):
    if name == "server.job":
        @functools.wraps(func)
        def job_wrapper(self, job, *args, **kwargs):
            span = recorder.begin(name, request=job.id)
            try:
                return func(self, job, *args, **kwargs)
            finally:
                recorder.end(span)
        return job_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(span)
        if name == "sim.run":
            recorder.count("sim.transactions", len(result.trace))
            recorder.count("sim.cycles", result.simulated_cycles)
        elif name == "core.search":
            recorder.count("core.probes", len(result.probes))
        elif name in _TASK_ARG and len(args) > _TASK_ARG[name]:
            recorder.count("exec.tasks", len(args[_TASK_ARG[name]]))
        return result
    return wrapper


def _install_counters(recorder: Recorder) -> None:
    """Count at the program's own tally points, by class method."""
    from repro.core.instrumentation import SolveCounter
    from repro.exec.cache import ResultCache
    from repro.pipeline.store import StageCounters
    from repro.platform.soc import SimulationCounter
    from repro.resilience.retry import EngineStats

    solve_record = SolveCounter.record

    def record_solve(self, kind, backend="assignment"):
        recorder.count(f"core.solves.{kind}")
        return solve_record(self, kind, backend=backend)

    SolveCounter.record = record_solve

    sim_record = SimulationCounter.record

    def record_sim(self):
        recorder.count("sim.runs")
        return sim_record(self)

    SimulationCounter.record = record_sim

    bump = StageCounters._bump

    def record_stage(self, table, kind, stage):
        recorder.count(f"pipeline.{kind}")
        if kind == "computed" and stage == "window":
            recorder.mark("computed")
        return bump(self, table, kind, stage)

    StageCounters._bump = record_stage

    cache_get = ResultCache.get
    cache_put = ResultCache.put

    def get(self, key):
        result = cache_get(self, key)
        recorder.count("exec.cache_hits" if result is not None
                       else "exec.cache_misses")
        return result

    def put(self, key, result):
        recorder.count("exec.cache_stores")
        return cache_put(self, key, result)

    ResultCache.get = get
    ResultCache.put = put

    for method in ("record_task_retry", "record_pool_rebuild",
                   "record_serial_fallback"):
        original = getattr(EngineStats, method)

        def retry(self, *args, _original=original, **kwargs):
            recorder.count("exec.retries")
            return _original(self, *args, **kwargs)

        setattr(EngineStats, method, retry)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` and the counters."""
    import repro.cli  # noqa: F401 - loads the modules the CLI binds

    for module_name, qualname, span_name in ENTRY_POINTS:
        module, owner, attr = _resolve(module_name, qualname)
        original = owner.__dict__[attr]
        wrapped = _span_wrapper(recorder, span_name, original)
        setattr(owner, attr, wrapped)
        if owner is not module:
            continue
        # Rebind copies taken by ``from module import name``.
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(attr) is original):
                setattr(other, attr, wrapped)
    _install_counters(recorder)


def main(argv) -> int:
    out_dir = os.environ["PERFBENCH_SPANS"]
    recorder = Recorder(out_dir, os.environ.get("PERFBENCH_REQUEST", "cli"))
    root = recorder.begin("cli.main")
    try:
        startup = recorder.begin("cli.import")
        install(recorder)
        from repro.cli import main as repro_main

        recorder.end(startup)
        return repro_main(argv)
    finally:
        recorder.end(root)
        recorder.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
