"""Chaos tests: cache corruption and transient I/O never poison results.

A cache is an optimization, never a source of truth: corrupted entries
(injected via ``cache.corrupt``, or genuinely truncated on disk) must
read as misses and be re-solved to byte-identical values, and failing
writes (``io.transient``) must degrade to recomputation -- counted,
never raised into the solve that produced the value.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, ResultCache, SynthesisTask, result_to_dict
from repro.pipeline import ArtifactStore
from repro.resilience import FaultPlan, FaultRule, clear_plan, install_plan

WINDOWS = [150, 2_400]
CONFIG = SynthesisConfig(max_targets_per_bus=None)


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=6_000, num_initiators=4,
        num_targets=4, seed=3,
    )


@pytest.fixture(scope="module")
def tasks():
    return [SynthesisTask(config=CONFIG, window_size=w) for w in WINDOWS]


def sweep_bytes(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    ).encode()


class TestCorruptedEntries:
    def test_injected_corruption_is_resolved_byte_identically(
        self, small_trace, tasks, tmp_path
    ):
        baseline_engine = ExecutionEngine(jobs=1, cache=str(tmp_path))
        baseline = sweep_bytes(baseline_engine.run_sweep(small_trace, tasks))
        assert baseline_engine.cache.stats.stores == len(tasks)

        # Every read of an existing entry now decodes to garbage.
        install_plan(
            FaultPlan(rules={"cache.corrupt": FaultRule(rate=1.0)})
        )
        chaos_engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        results = chaos_engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(results) == baseline
        stats = chaos_engine.cache.stats
        assert stats.invalid == len(tasks)   # corrupt reads -> misses
        assert stats.stores == len(tasks)    # re-solved and rewritten

        # Injection off again: the rewritten entries serve warm hits.
        clear_plan()
        warm_engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        warm = warm_engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(warm) == baseline
        assert warm_engine.cache.stats.hits == len(tasks)
        assert warm_engine.cache.stats.misses == 0

    def test_truncated_entry_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_json("abc123", {"format": "x", "value": 1})
        path = tmp_path / "abc123.json"
        path.write_bytes(path.read_bytes()[:7])  # torn mid-write
        assert cache.get_json("abc123") is None
        assert cache.stats.invalid == 1


class TestTransientWrites:
    def test_first_attempt_failure_is_retried_and_lands(self, tmp_path):
        install_plan(
            FaultPlan(
                rules={"io.transient": FaultRule(rate=1.0, match=("*:a0",))}
            )
        )
        cache = ResultCache(tmp_path)
        cache.put_json("k1", {"value": 1})
        assert cache.get_json("k1") == {"value": 1}
        assert cache.stats.stores == 1
        assert cache.stats.write_errors == 0

    def test_persistent_failure_is_swallowed_and_counted(self, tmp_path):
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        cache = ResultCache(tmp_path)
        cache.put_json("k1", {"value": 1})  # must not raise
        assert cache.stats.write_errors == 1
        assert cache.stats.stores == 0
        assert "k1" not in cache

    def test_write_failure_never_fails_the_solve(
        self, small_trace, tasks, tmp_path
    ):
        """The whole point of best-effort persistence: a sweep over a
        dead disk still returns correct results."""
        baseline = sweep_bytes(
            ExecutionEngine(jobs=1).run_sweep(small_trace, tasks)
        )
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        engine = ExecutionEngine(jobs=1, cache=str(tmp_path))
        results = engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(results) == baseline
        assert engine.cache.stats.write_errors >= len(tasks)


class TestOrphanSweep:
    def _make_tmp(self, directory, name, age_s):
        path = directory / name
        path.write_text("partial")
        old = time.time() - age_s
        os.utime(path, (old, old))
        return path

    def test_construction_sweeps_stale_tmp_files(self, tmp_path):
        stale = self._make_tmp(tmp_path, ".tmp-dead1.json", 2 * 3600)
        fresh = self._make_tmp(tmp_path, ".tmp-live2.json", 1)
        entry = tmp_path / "realkey.json"
        entry.write_text("{}")

        ResultCache(tmp_path)
        assert not stale.exists()       # orphan from a killed writer
        assert fresh.exists()           # possibly a live writer: kept
        assert entry.exists()           # real entries untouched

    def test_prune_sweeps_orphans_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = self._make_tmp(tmp_path, ".tmp-dead3.npz", 2 * 3600)
        cache.prune(max_bytes=10**9)
        assert not stale.exists()

    def test_explicit_sweep_with_zero_age_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._make_tmp(tmp_path, ".tmp-a.json", 1)
        self._make_tmp(tmp_path, ".tmp-b.npz", 1)
        assert cache.sweep_orphans(max_age_s=0) == 2

    def test_orphans_are_invisible_to_keys_and_usage(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_json("goodkey", {"value": 1})
        self._make_tmp(tmp_path, ".tmp-orphan.json", 1)
        assert list(cache.keys()) == ["goodkey"]
        assert cache.usage().entries == 1


class TestTensorSidecars:
    def test_truncated_npz_sidecar_is_a_miss(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        arrays = {"comm": np.arange(12.0).reshape(3, 4)}
        store.put_arrays("fp1", arrays)
        loaded = store.get_arrays("fp1")
        assert loaded is not None
        np.testing.assert_array_equal(loaded["comm"], arrays["comm"])

        path = tmp_path / "stage-fp1.npz"
        path.write_bytes(path.read_bytes()[:10])  # torn mid-write
        assert store.get_arrays("fp1") is None

    def test_garbage_npz_sidecar_is_a_miss(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        (tmp_path / "stage-fp2.npz").write_bytes(b"not a zip archive")
        assert store.get_arrays("fp2") is None

    def test_sidecar_write_failure_is_silent(self, tmp_path, monkeypatch):
        store = ArtifactStore(disk=ResultCache(tmp_path))

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        store.put_arrays("fp3", {"x": np.zeros(2)})  # must not raise
        monkeypatch.undo()
        assert store.get_arrays("fp3") is None
        # The temp file was cleaned up on the failure path.
        assert list(tmp_path.glob(".tmp-*")) == []
