"""Shared plumbing: running ``repro`` processes, statistics, checks and
the per-layer breakdown of a traced run."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACER = BENCH_DIR / "tracer.py"

# Every process the benchmark starts must end within this many seconds.
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's source is missing)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def child_env(**extra: str) -> dict:
    """Environment for program processes: the checkout's ``src`` only,
    temporary files inside the checkout, and no ``REPRO_*`` overrides
    inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK_ROOT)
    env.update(extra)
    return env


def compile_sources() -> None:
    """Byte-compile the program once, so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        check=True, stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S,
    )


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


class Result:
    """Tallies operations and named output checks for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        passed, total, details = self.checks.get(name, (0, 0, []))
        if not ok and detail and len(details) < 3:
            details = details + [detail]
        self.checks[name] = (passed + bool(ok), total + 1, details)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            passed == total for passed, total, _ in self.checks.values()
        )


def run_repro(args, env, *, traced: bool = False):
    """Run one ``repro`` process; returns (returncode, stdout, peak
    resident set in MB of the process and the children it waited for)."""
    entry = [str(TRACER)] if traced else ["-m", "repro"]
    with tempfile.TemporaryFile(dir=WORK_ROOT) as out, \
            tempfile.TemporaryFile(dir=WORK_ROOT) as err:
        proc = subprocess.Popen([sys.executable, *entry, *args], env=env,
                                stdout=out, stderr=err)
        # ``os.wait4`` gives this one process's resource usage, which
        # ``Popen.wait`` does not; the timer stands in for its timeout.
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        sys.stderr.write(
            f"repro {' '.join(args)} exited {proc.returncode}:\n"
            f"{stderr[-2000:]}\n"
        )
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0


_IMPORT_PROBE = (
    "import sys, time, json\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "t = time.perf_counter() - t\n"
    "heavy = [m for m in ('scipy.optimize', 'networkx') if m in sys.modules]\n"
    "print(json.dumps({'import_s': t, 'modules': len(sys.modules),"
    " 'heavy': len(heavy)}))\n"
)


def import_probes(env, count: int):
    """Spawn ``count`` fresh interpreters that ``import repro.cli``.

    Returns the spawn-to-exit wall times and each probe's report
    (in-process import time, module count, heavy modules loaded)."""
    walls, reports = [], []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env,
            capture_output=True, text=True, check=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - started)
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, reports


def peak_child_rss_mb() -> float:
    """Largest resident set of any program process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """The highest order statistic with at least ten samples beyond it,
    and its percentile: ``(value, percentile)``."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return float(ordered[-1]), 100.0
    index = len(ordered) - 11
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered)


def strip_cache_line(stdout: str) -> str:
    """Output without the ``cache: ...`` tally, the one line that is
    meant to differ between a cold and a warm run."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not line.startswith("cache: ")
    )


def cache_line(stdout: str):
    """``(hits, lookups)`` from the ``cache: H/N hits`` line, or None."""
    for line in stdout.splitlines():
        if line.startswith("cache: "):
            hits, _, rest = line[len("cache: "):].partition("/")
            return int(hits), int(rest.split()[0])
    return None


def count_src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


# -- traced runs -----------------------------------------------------------

LAYERS = ("cli", "sim", "traffic", "core", "milp", "pipeline", "exec",
          "scenarios", "server")


def load_spans(span_dir: Path, since: float = float("-inf")):
    """Spans and summed counts of every traced process, from ``since``
    (a ``time.perf_counter`` reading; the clock is system-wide) on."""
    spans, counts = [], {}
    for path in sorted(span_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(s for s in payload["spans"] if s["start"] >= since)
        for stamp, key, value in payload["counts"]:
            if stamp >= since:
                counts[key] = counts.get(key, 0) + value
    return spans, counts


def _covered(intervals) -> float:
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def layer_breakdown(spans, counts) -> dict:
    """Per-layer metrics of one traced run, from spans and counts."""
    by_id = {span["id"]: span for span in spans}
    children = {}
    for span in spans:
        if span["parent"] in by_id:
            children.setdefault(span["parent"], []).append(span)

    def duration(span):
        return span["end"] - span["start"]

    def has_ancestor(span, match):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if match(parent):
                return True
            parent = by_id.get(parent["parent"])
        return False

    def named(*names):
        return lambda span: span["name"] in names

    def total(match):
        """Time in matching spans, not counting one nested in another."""
        return sum(duration(s) for s in spans
                   if match(s) and not has_ancestor(s, match))

    self_time = {layer: 0.0 for layer in LAYERS}
    other = 0.0
    for span in spans:
        own = duration(span) - _covered(
            (c["start"], c["end"]) for c in children.get(span["id"], ())
        )
        if span["name"] == "cli.main":
            other += own
        else:
            self_time[span["name"].split(".")[0]] += own
    wall = total(named("cli.main"))

    computed = counts.get("pipeline.computed", 0)
    hits = sum(counts.get(f"pipeline.{kind}", 0)
               for kind in ("memo_hit", "disk_hit", "shm_hit"))
    # Evaluation runs: simulations other than the phase-1 collection.
    sim_run = named("sim.simulate", "sim.run")
    eval_s = total(
        lambda s: sim_run(s) and not has_ancestor(s, named("sim.collect"))
    )
    collect_s = total(named("sim.collect"))
    transactions = counts.get("sim.transactions", 0)
    windows = [s for s in spans
               if s["name"] == "traffic.window" and s.get("computed")]
    metrics = {
        "sim.collect_s": collect_s,
        "sim.eval_s": eval_s,
        "sim.runs": counts.get("sim.runs", 0),
        "sim.transactions": transactions,
        "sim.cycles": counts.get("sim.cycles", 0),
        "sim.host_us_per_txn":
            1e6 * (collect_s + eval_s) / transactions if transactions else 0.0,
        "traffic.window_s": sum(duration(s) for s in windows),
        "traffic.window_calls": len(windows),
        "core.conflicts_s": total(named("core.conflicts")),
        "core.search_s": total(named("core.search")),
        "core.bind_s": total(named("core.bind")),
        "core.solves.feasibility": counts.get("core.solves.feasibility", 0),
        "core.solves.binding": counts.get("core.solves.binding", 0),
        "core.probes": counts.get("core.probes", 0),
        "milp.solve_s": total(named("milp.solve")),
        "milp.solves": sum(1 for s in spans if s["name"] == "milp.solve"),
        "pipeline.computed": computed,
        "pipeline.memo_hits": counts.get("pipeline.memo_hit", 0),
        "pipeline.disk_hits": counts.get("pipeline.disk_hit", 0),
        "pipeline.shm_hits": counts.get("pipeline.shm_hit", 0),
        "pipeline.hit_ratio": hits / (hits + computed) if hits + computed else 0.0,
        "pipeline.store_io_s": total(named("pipeline.store")),
        "exec.engine_s": total(lambda s: s["name"].startswith("exec.")),
        "exec.pool_self_s": self_time["exec"],
        "exec.tasks": counts.get("exec.tasks", 0),
        "exec.cache_hits": counts.get("exec.cache_hits", 0),
        "exec.cache_misses": counts.get("exec.cache_misses", 0),
        "exec.cache_stores": counts.get("exec.cache_stores", 0),
        "exec.retries": counts.get("exec.retries", 0),
        "scenarios.run_s": total(named("scenarios.run")),
        "scenarios.merge_bind_s": total(named("scenarios.merge_bind")),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = self_time[layer]
    metrics["self.other_s"] = other
    metrics["self.other_ratio"] = other / wall if wall else 0.0
    return metrics
