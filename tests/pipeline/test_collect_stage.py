"""The Phase-1 ``collect-run`` stage.

The simulated trace is the oracle for the persisted one: a warm process
loads the full-crossbar run from the cache directory instead of
simulating it, so the loaded trace must equal the simulated one record
for record, and a damaged entry must read as a miss that re-simulates to
the same report.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil

import numpy as np
import pytest

from repro.apps import APPLICATIONS, build_application
from repro.apps import registry
from repro.cli import main
from repro.exec import ResultCache, trace_fingerprint
from repro.obs import metrics as _metrics
from repro.pipeline import ArtifactStore, PipelineRunner
from repro.pipeline.artifacts import collect_stage_spec
from repro.platform import SIMULATION_COUNTER
from repro.traffic.events import TraceRecord
from repro.traffic.trace import TrafficTrace

APPS = sorted(APPLICATIONS)


def disk_runner(cache_dir) -> PipelineRunner:
    return PipelineRunner(store=ArtifactStore(disk=ResultCache(cache_dir)))


FIELDS = [field.name for field in dataclasses.fields(TraceRecord)]


def record_rows(trace):
    """Every field of every record, ``stream`` included (it is left out
    of ``TraceRecord`` equality)."""
    return [
        tuple(getattr(record, name) for name in FIELDS)
        for record in trace.records
    ]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """Every registry app simulated once through a disk-backed runner."""
    cache_dir = tmp_path_factory.mktemp("collect")
    runner = disk_runner(cache_dir)
    runs = {name: runner.collect_run(build_application(name)) for name in APPS}
    assert runner.counters.computed == {"collect-run": len(APPS)}
    return cache_dir, runs


class TestRoundTrip:
    @pytest.mark.parametrize("name", APPS)
    def test_loaded_run_equals_simulated(self, simulated, name):
        cache_dir, runs = simulated
        expected = runs[name]
        runner = disk_runner(cache_dir)
        SIMULATION_COUNTER.reset()
        loaded = runner.collect_run(build_application(name))
        assert SIMULATION_COUNTER.runs == 0
        assert runner.counters.disk_hits == {"collect-run": 1}

        assert record_rows(loaded.trace) == record_rows(expected.trace)
        for field in ("num_initiators", "num_targets", "total_cycles",
                      "target_names", "initiator_names"):
            assert getattr(loaded.trace, field) == getattr(
                expected.trace, field
            )
        assert loaded.stats == expected.stats
        assert loaded.fingerprint == expected.fingerprint

        # The recomputed content hash equals the stored one.
        header = runner.store.get_payload(loaded.fingerprint)
        rebuilt = TrafficTrace(
            loaded.trace.records,
            num_initiators=loaded.trace.num_initiators,
            num_targets=loaded.trace.num_targets,
            total_cycles=loaded.trace.total_cycles,
        )
        assert trace_fingerprint(rebuilt) == header["trace_fingerprint"]
        assert header["trace_fingerprint"] == trace_fingerprint(expected.trace)

    def test_second_lookup_is_a_memo_hit(self, simulated):
        cache_dir, _ = simulated
        runner = disk_runner(cache_dir)
        app = build_application("qsort")
        first = runner.collect_run(app)
        assert runner.collect_run(app) is first
        assert runner.counters.memo_hits == {"collect-run": 1}

    def test_unkeyed_application_is_simulated_not_stored(self, tmp_path):
        app = dataclasses.replace(build_application("qsort"), registry_key=None)
        runner = disk_runner(tmp_path)
        assert runner.collect_fingerprint(app.driver()) is None
        SIMULATION_COUNTER.reset()
        runner.collect_run(app)
        runner.collect_run(app)
        assert SIMULATION_COUNTER.runs == 2
        assert list(tmp_path.iterdir()) == []


class TestStageKey:
    def test_key_covers_workload_fabric_and_budget(self):
        base = collect_stage_spec({"source": "app:qsort"}, 2, 5, 1_000)
        assert base["it"] == [0, 1, 2, 3, 4] and base["ti"] == [0, 1]
        for other in (
            collect_stage_spec({"source": "app:fft"}, 2, 5, 1_000),
            collect_stage_spec({"source": "app:qsort"}, 2, 5, 2_000),
            collect_stage_spec({"source": "app:qsort"}, 3, 5, 1_000),
        ):
            assert other != base

    def test_simulator_schema_bump_moves_the_key(self, monkeypatch):
        from repro.pipeline import artifacts

        driver = build_application("qsort").driver()
        before = PipelineRunner().collect_fingerprint(driver)
        monkeypatch.setattr(
            artifacts, "CACHE_SCHEMA_VERSION",
            artifacts.CACHE_SCHEMA_VERSION + 1,
        )
        assert PipelineRunner().collect_fingerprint(driver) != before


# -- the CLI over a cache directory ------------------------------------------


@pytest.fixture
def no_process_memo(monkeypatch):
    """Each ``main()`` call below acts like a fresh process: the
    per-process collect memo starts empty."""
    monkeypatch.setattr(registry, "_DEFAULT_RUNS", {})


def design(argv, capsys) -> str:
    """stdout of one ``repro`` run, less its ``cache:`` tally line, after
    clearing the per-process collect memo."""
    registry._DEFAULT_RUNS.clear()
    assert main(argv) == 0
    return strip_cache_line(capsys.readouterr().out)


def strip_cache_line(out: str) -> str:
    return "\n".join(
        line for line in out.splitlines() if not line.startswith("cache:")
    )


def collect_paths(cache_dir, app="qsort"):
    fingerprint = PipelineRunner().collect_fingerprint(
        build_application(app).driver()
    )
    stem = cache_dir / f"stage-{fingerprint}"
    return stem.with_suffix(".json"), stem.with_suffix(".npz")


def computed_collects() -> float:
    return _metrics.REGISTRY.get("repro_stage_events_total").value(
        stage="collect-run", kind="computed"
    )


def truncate(path):
    path.write_bytes(path.read_bytes()[:10])


def garbage(path):
    path.write_bytes(b"not a zip archive")


def corrupt_json(path):
    path.write_text("{\"format\": ", encoding="utf-8")


def wrong_trace_hash(path):
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["payload"]["trace_fingerprint"] = "0" * 64
    path.write_text(json.dumps(entry), encoding="utf-8")


def shifted_records(path):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["records"][:, 11] += 1  # every completion one cycle late
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def delete(path):
    path.unlink()


@pytest.fixture(scope="module")
def cold_qsort(tmp_path_factory):
    """A cache directory filled by one cold ``design qsort``, and that
    run's stdout less its ``cache:`` line."""
    cache_dir = tmp_path_factory.mktemp("cold")
    registry._DEFAULT_RUNS.pop("qsort", None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["design", "qsort", "--cache-dir", str(cache_dir)]) == 0
    return cache_dir, strip_cache_line(out.getvalue())


@pytest.mark.usefixtures("no_process_memo")
class TestCorruptEntries:
    @pytest.mark.parametrize(
        "damage, target",
        [
            (truncate, "npz"),
            (garbage, "npz"),
            (shifted_records, "npz"),
            (delete, "npz"),
            (corrupt_json, "json"),
            (wrong_trace_hash, "json"),
            (delete, "json"),
        ],
        ids=["truncated-npz", "garbage-npz", "shifted-records", "missing-npz",
             "corrupt-header", "wrong-trace-hash", "missing-header"],
    )
    def test_damaged_entry_is_a_counted_miss(
        self, tmp_path, capsys, cold_qsort, damage, target
    ):
        cold_dir, cold = cold_qsort
        cache_dir = tmp_path / "cache"
        shutil.copytree(cold_dir, cache_dir)
        argv = ["design", "qsort", "--cache-dir", str(cache_dir)]
        header, sidecar = collect_paths(cache_dir)
        damage(sidecar if target == "npz" else header)

        before = computed_collects()
        SIMULATION_COUNTER.reset()
        assert design(argv, capsys) == cold
        assert SIMULATION_COUNTER.runs == 1  # re-simulated
        assert computed_collects() == before + 1

        # The miss rewrote the entry: the next process loads it.
        SIMULATION_COUNTER.reset()
        assert design(argv, capsys) == cold
        assert SIMULATION_COUNTER.runs == 0
        assert computed_collects() == before + 1


@pytest.mark.usefixtures("no_process_memo")
class TestCliCache:
    def test_warm_design_performs_no_simulation(self, tmp_path, capsys):
        argv = ["design", "qsort", "--cache-dir", str(tmp_path)]
        SIMULATION_COUNTER.reset()
        cold = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 1
        SIMULATION_COUNTER.reset()
        assert design(argv, capsys) == cold
        assert SIMULATION_COUNTER.runs == 0

    def test_warm_validate_simulates_only_the_validation(
        self, tmp_path, capsys
    ):
        argv = ["design", "mat2", "--validate", "--cache-dir", str(tmp_path)]
        SIMULATION_COUNTER.reset()
        cold = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 2  # collect + validation
        SIMULATION_COUNTER.reset()
        assert design(argv, capsys) == cold
        assert SIMULATION_COUNTER.runs == 1  # the validation run

    def test_cache_stats_and_prune_count_collect_entries(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        design(["design", "qsort", "--cache-dir", str(cache_dir)], capsys)
        header, sidecar = collect_paths(cache_dir)
        assert header.exists() and sidecar.exists()
        files = sorted(cache_dir.iterdir())
        size = sum(path.stat().st_size for path in files)

        assert main(["cache", "stats", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{len(files)} entries, {size} bytes" in out

        # Aged to least recently used, the collect run's two entries are
        # exactly what a prune to the rest's footprint evicts.
        collect_bytes = header.stat().st_size + sidecar.stat().st_size
        aged = min(path.stat().st_mtime for path in files) - 60
        for path in (header, sidecar):
            os.utime(path, (aged, aged))
        assert main(["cache", "prune", str(cache_dir),
                     "--max-bytes", str(size - collect_bytes)]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert not header.exists() and not sidecar.exists()

        assert main(["cache", "prune", str(cache_dir),
                     "--max-bytes", "0"]) == 0
        assert f"pruned {len(files) - 2} entries" in capsys.readouterr().out
        SIMULATION_COUNTER.reset()
        design(["design", "qsort", "--cache-dir", str(cache_dir)], capsys)
        assert SIMULATION_COUNTER.runs == 1
