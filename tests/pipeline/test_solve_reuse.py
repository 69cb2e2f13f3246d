"""Solved bindings are reused by conflict graph, not by threshold.

The overlap threshold reaches the solver only through the conflict
pairs (Eq. 7), so the persisted search/binding entry is keyed by the
windowed problem, the pair set and the binding-stage configuration. A
fresh threshold that induces an already-solved graph solves nothing
and prints what a cold run prints; one that induces a new graph still
solves. Every ``main()`` call below acts like a fresh process: the
per-process collect memo starts empty.
"""

import json

import pytest

from repro.apps import build_application, default_full_crossbar_trace
from repro.apps import registry
from repro.cli import main
from repro.core import SOLVE_COUNTER, SynthesisConfig
from repro.exec import ExecutionEngine, SynthesisTask, trace_fingerprint
from repro.pipeline import PipelineRunner
from repro.pipeline.store import STAGE_ENTRY_FORMAT

# qsort at 30% and 31% induce one conflict graph on each side (6 IT and
# 3 TI pairs); at 20% and 40% they differ (15 vs 0 IT pairs). mat2 has
# no conflicts anywhere in [25%, 40%].
SAME_GRAPH = ("0.30", "0.31")


@pytest.fixture(autouse=True)
def no_process_memo(monkeypatch):
    monkeypatch.setattr(registry, "_DEFAULT_RUNS", {})


def run(argv, capsys):
    """(stdout less its ``cache:`` line, the ``cache:`` line) of one
    ``repro`` run."""
    registry._DEFAULT_RUNS.clear()
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    cache = [line for line in lines if line.startswith("cache:")]
    body = "\n".join(line for line in lines if not line.startswith("cache:"))
    return body, (cache[0] if cache else None)


def design_argv(app, threshold, *extra):
    return ["design", app, "--threshold", threshold, *extra]


def fresh_threshold_on_warm_cache(app, extra, cache_dir, capsys):
    """Design at 30% then 31% on one cache directory; returns the second
    run's output, its cache line and its solve count, plus a no-cache run
    at 31% to compare against."""
    cache = ["--cache-dir", str(cache_dir)]
    run(design_argv(app, SAME_GRAPH[0], *extra, *cache), capsys)
    SOLVE_COUNTER.reset()
    warm, cache_line = run(design_argv(app, SAME_GRAPH[1], *extra, *cache),
                           capsys)
    solves = SOLVE_COUNTER.total
    cold, _ = run(design_argv(app, SAME_GRAPH[1], *extra), capsys)
    return warm, cache_line, solves, cold


class TestFreshThreshold:
    def test_mat2_highs_reuses_the_solved_graph(self, tmp_path, capsys):
        warm, cache_line, solves, cold = fresh_threshold_on_warm_cache(
            "mat2", ["--backend", "milp", "--milp-backend", "highs"],
            tmp_path, capsys,
        )
        assert solves == 0
        assert warm == cold
        # The engine's result tally still counts only its own entries.
        assert cache_line.startswith("cache: 0/1 hits")

    def test_reuse_holds_on_the_default_milp_tier(self, tmp_path, capsys):
        """No ``--milp-backend``: the tier comes from the environment,
        and the key leaves it out, so reuse must hold on each tier."""
        warm, cache_line, solves, cold = fresh_threshold_on_warm_cache(
            "qsort", ["--backend", "milp"], tmp_path, capsys,
        )
        assert solves == 0
        assert warm == cold
        assert cache_line.startswith("cache: 0/1 hits")

    def test_a_new_graph_still_solves(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        run(design_argv("qsort", "0.2", *cache), capsys)
        SOLVE_COUNTER.reset()
        warm, _ = run(design_argv("qsort", "0.4", *cache), capsys)
        assert SOLVE_COUNTER.total > 0
        cold, _ = run(design_argv("qsort", "0.4"), capsys)
        assert warm == cold
        assert "IT conflicts: 0," in warm


class TestSweeps:
    def test_serial_sweep_consumes_pooled_entries(self, tmp_path):
        trace = default_full_crossbar_trace("qsort")

        def tasks(threshold):
            config = SynthesisConfig(overlap_threshold=threshold)
            return [SynthesisTask(config, window) for window in (500, 1_000)]

        pooled = ExecutionEngine(jobs=2, cache=tmp_path)
        pooled.run_sweep(trace, tasks(0.30))
        assert pooled.stats.snapshot()["serial_tasks"] == 0

        SOLVE_COUNTER.reset()
        warm = ExecutionEngine(jobs=1, cache=tmp_path).run_sweep(
            trace, tasks(0.31)
        )
        assert SOLVE_COUNTER.total == 0
        assert warm == ExecutionEngine(jobs=1).run_sweep(trace, tasks(0.31))


def bind_entries(cache_dir):
    """The persisted search/binding entries of a cache directory."""
    entries = []
    for path in sorted(cache_dir.glob("stage-*.json")):
        entry = json.loads(path.read_text(encoding="utf-8"))
        if "search" in entry.get("payload", {}):
            entries.append(path)
    return entries


def truncate(path):
    path.write_bytes(path.read_bytes()[:10])


def garbage(path):
    path.write_text(
        json.dumps({"format": STAGE_ENTRY_FORMAT,
                    "payload": {"search": "garbage", "binding": []}}),
        encoding="utf-8",
    )


class TestDamagedEntries:
    @pytest.mark.parametrize("damage", [truncate, garbage])
    def test_damaged_bind_payload_is_a_miss(self, damage, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        run(design_argv("qsort", SAME_GRAPH[0], *cache), capsys)
        entries = bind_entries(tmp_path)
        assert len(entries) == 2  # one per crossbar side
        for path in entries:
            damage(path)

        SOLVE_COUNTER.reset()
        healed, _ = run(design_argv("qsort", SAME_GRAPH[1], *cache), capsys)
        assert SOLVE_COUNTER.total > 0
        cold, _ = run(design_argv("qsort", SAME_GRAPH[1]), capsys)
        assert healed == cold

        # The re-solve rewrote the entries: the next fresh threshold on
        # the same graph solves nothing.
        assert len(bind_entries(tmp_path)) == 2
        SOLVE_COUNTER.reset()
        run(design_argv("qsort", "0.305", *cache), capsys)
        assert SOLVE_COUNTER.total == 0


class TestFingerprints:
    def test_design_fingerprint_stays_threshold_specific(self, tmp_path):
        trace = default_full_crossbar_trace("qsort")
        window = build_application("qsort").default_window
        digest = trace_fingerprint(trace)
        runner = PipelineRunner.for_cache_dir(tmp_path)
        fingerprints = []
        for threshold in SAME_GRAPH:
            config = SynthesisConfig(overlap_threshold=float(threshold))
            derived = runner.design_fingerprint(digest, config, window)
            executed = runner.design(trace, config, window)
            assert executed.fingerprint == derived
            fingerprints.append(derived)
        assert fingerprints[0] != fingerprints[1]
        # The second threshold's bindings came from the graph-keyed
        # entries the first one wrote.
        assert runner.counters.disk_hits.get("bind") == 2
