"""Typed per-stage artifacts of the staged synthesis pipeline.

The paper's methodology (Fig. 3) is an explicit staged flow::

    traffic collection -> window segmentation -> conflict pre-processing
        -> binding search -> validation

Each stage's output is wrapped in a small frozen dataclass carrying a
*content-addressed fingerprint*: a SHA-256 over the fingerprints of the
stage's upstream artifacts plus the canonical encoding of exactly the
configuration fields that stage consumes. Two consequences follow:

* equal inputs always produce equal fingerprints, across processes and
  Python versions (the encoding reuses
  :func:`repro.exec.fingerprint.canonical_json`), so artifacts are
  cacheable and shareable;
* a configuration change only invalidates the stages that read the
  changed field -- re-running a threshold sweep re-windows nothing, and
  editing one scenario of a suite re-collects nothing else.

The artifact types mirror the paper's stages one-to-one:

=====================  ==============================================
:class:`CollectRun`         Phase 1 -- the full-crossbar simulation run
:class:`CollectedTraffic`   Phase 1 -- the full-crossbar traffic trace
:class:`WindowedAnalysis`   Phase 2 -- one side's windowed design problem
:class:`ConflictArtifact`   Phase 3 -- the conflict matrix
:class:`BindingArtifact`    Phase 4 -- configuration search + binding
:class:`ReplayArtifact`     Phase 4' -- a workload replayed on the design
=====================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.exec.fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    sha256_hex,
    trace_fingerprint,
)
from repro.platform.fabric import full_crossbar_binding
from repro.platform.metrics import LatencyStats
from repro.platform.soc import SimulationResult
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace

__all__ = [
    "STAGE_SCHEMA_VERSION",
    "stage_fingerprint",
    "window_stage_spec",
    "conflict_stage_spec",
    "binding_stage_spec",
    "warm_hint_key",
    "replay_stage_spec",
    "collect_stage_spec",
    "CollectRun",
    "CollectedTraffic",
    "WindowedAnalysis",
    "ConflictArtifact",
    "BindingArtifact",
    "ReplayArtifact",
]

STAGE_SCHEMA_VERSION = 1
"""Bump to invalidate every persisted stage artifact on format changes."""


def stage_fingerprint(stage: str, upstream, spec: Any) -> str:
    """Content hash of one stage execution.

    ``upstream`` is the fingerprint (or fingerprint list) of the
    artifacts the stage consumes; ``spec`` is a JSON-encodable record of
    the configuration fields the stage reads -- *only* those fields, so
    unrelated configuration changes never invalidate the stage.
    """
    payload = {
        "schema": STAGE_SCHEMA_VERSION,
        "stage": stage,
        "upstream": upstream,
        "spec": spec,
    }
    return sha256_hex(canonical_json(payload))


def window_stage_spec(
    config: SynthesisConfig, window_size: int, mirrored: bool
) -> Dict[str, Any]:
    """The configuration slice the window-segmentation stage reads."""
    return {
        "window_size": int(window_size),
        "mirrored": bool(mirrored),
        "variable_windows": config.variable_windows,
        "variable_window_ratio": config.variable_window_ratio,
    }


def conflict_stage_spec(config: SynthesisConfig) -> Dict[str, Any]:
    """The configuration slice the conflict pre-processing stage reads."""
    return {
        "overlap_threshold": config.overlap_threshold,
        "use_criticality": config.use_criticality,
    }


def binding_stage_spec(config: SynthesisConfig) -> Dict[str, Any]:
    """The configuration slice the search/binding stage reads.

    ``milp_backend`` is *deliberately absent*: every MILP backend is
    exact and the binding layer canonicalizes optimal solutions, so the
    artifact content is backend-independent by construction. Keying it
    would split the cache by a knob that cannot change the bytes --
    switching backends must keep reusing the same solved bindings.
    """
    return {
        "backend": config.backend,
        "max_targets_per_bus": config.max_targets_per_bus,
        "node_limit": config.node_limit,
    }


def warm_hint_key(
    stage: str, problem: CrossbarDesignProblem, config: SynthesisConfig
) -> str:
    """Content key for the binding stage's warm-start hint slot.

    Deliberately *coarser* than the stage fingerprint: it hashes the
    problem's shape (target count, window size) and the binding-stage
    configuration slice, but not the traffic content. An edited suite
    perturbs the traffic -- missing the artifact cache, which is
    correct, the answer may change -- while still hitting this slot, so
    the previous solve's binding seeds the new solve. Hints are
    advisory and re-validated by the solver, which is what makes this
    coarseness safe.
    """
    payload = {
        "kind": "warm-hint",
        "schema": STAGE_SCHEMA_VERSION,
        "stage": stage,
        "targets": int(problem.num_targets),
        "window_size": int(problem.window_size),
        "spec": binding_stage_spec(config),
    }
    return sha256_hex(canonical_json(payload))


def replay_stage_spec(
    workload_key: Dict[str, Any], design: CrossbarDesign, budget: int
) -> Dict[str, Any]:
    """What determines a latency replay: workload + fabric + budget.

    ``workload_key`` is the driver's content key
    (:meth:`repro.platform.drivers.WorkloadDriver.workload_key`), which
    covers the stimulus *and* the platform it runs on; the design enters
    through its raw bindings so equal fabrics share replays whatever
    their labels. ``CACHE_SCHEMA_VERSION`` is folded in for the reason
    :func:`collect_stage_spec` gives: a program workload is keyed by
    name, so a program or simulator change must move this key too.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": workload_key,
        "it": list(design.it.binding),
        "ti": list(design.ti.binding),
        "budget": int(budget),
    }


def collect_stage_spec(
    workload_key: Dict[str, Any],
    num_initiators: int,
    num_targets: int,
    budget: int,
) -> Dict[str, Any]:
    """What determines a Phase-1 collection run: workload + the full
    crossbar it runs on + budget.

    ``CACHE_SCHEMA_VERSION`` is folded in because a program workload is
    keyed by name (``app:<name>``), not by its programs or the simulator
    that runs them: a change to either must bump that version, which
    moves this key and every trace fingerprint with it.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": workload_key,
        "it": full_crossbar_binding(num_targets),
        "ti": full_crossbar_binding(num_initiators),
        "budget": int(budget),
    }


_KINDS = tuple(TransactionKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

_RECORD_COLUMNS = (
    "initiator", "target", "kind", "burst", "issue", "it_grant",
    "it_release", "service_start", "service_end", "ti_grant",
    "ti_release", "complete", "critical",
)
"""Column order of the ``records`` array of a collect-run sidecar."""


@dataclass(frozen=True)
class CollectRun:
    """Phase 1 simulation output: a workload's full-crossbar trace plus
    the run's packet-latency statistics.

    ``fingerprint`` is the stage fingerprint (workload, fabric, budget),
    not the trace's content hash. The artifact persists as a tensor
    sidecar (:meth:`arrays`, the records as integer columns) plus a
    JSON header (:meth:`header`) carrying the trace's content hash, which
    :meth:`from_stored` re-derives from the loaded records: a stored
    trace is accepted only when it hashes to what was simulated.
    """

    trace: TrafficTrace
    stats: LatencyStats
    fingerprint: str

    @classmethod
    def from_result(
        cls, result: SimulationResult, fingerprint: str
    ) -> "CollectRun":
        return cls(
            trace=result.trace,
            stats=result.latency_stats(),
            fingerprint=fingerprint,
        )

    def header(self) -> Dict[str, Any]:
        """JSON-ready header for the persistent stage store."""
        return {
            "trace_fingerprint": trace_fingerprint(self.trace),
            "total_cycles": self.trace.total_cycles,
            "num_records": len(self.trace),
            "stats": _stats_payload(self.stats),
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """The trace as plain arrays for the ``.npz`` sidecar."""
        records = self.trace.records
        streams = sorted({record.stream for record in records})
        index = {name: position for position, name in enumerate(streams)}
        rows = [
            (
                r.initiator, r.target, _KIND_CODES[r.kind], r.burst,
                r.issue, r.it_grant, r.it_release, r.service_start,
                r.service_end, r.ti_grant, r.ti_release, r.complete,
                int(r.critical),
            )
            for r in records
        ]
        return {
            "records": np.asarray(rows, dtype=np.int64).reshape(
                -1, len(_RECORD_COLUMNS)
            ),
            "streams": np.asarray(
                [index[r.stream] for r in records], dtype=np.int64
            ),
            "stream_names": np.asarray(streams, dtype=np.str_),
            "target_names": np.asarray(self.trace.target_names, dtype=np.str_),
            "initiator_names": np.asarray(
                self.trace.initiator_names, dtype=np.str_
            ),
        }

    @classmethod
    def from_stored(
        cls,
        header: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
        fingerprint: str,
    ) -> "CollectRun":
        """Decode what :meth:`header` and :meth:`arrays` wrote.

        Raises ``KeyError``/``IndexError``/``TypeError``/``ValueError``
        or :class:`~repro.errors.ReproError` on malformed entries, and
        ``ValueError`` when the records do not hash to the header's
        trace fingerprint; the runner treats all of them as misses.
        """
        stream_names = [str(name) for name in arrays["stream_names"]]
        target_names = [str(name) for name in arrays["target_names"]]
        initiator_names = [str(name) for name in arrays["initiator_names"]]
        rows = np.asarray(arrays["records"]).tolist()
        streams = np.asarray(arrays["streams"]).tolist()
        if len(rows) != len(streams) or len(rows) != header["num_records"]:
            raise ValueError("collect-run sidecar has the wrong record count")
        records = [
            TraceRecord(
                initiator=row[0], target=row[1], kind=_KINDS[row[2]],
                burst=row[3], issue=row[4], it_grant=row[5],
                it_release=row[6], service_start=row[7],
                service_end=row[8], ti_grant=row[9], ti_release=row[10],
                complete=row[11], critical=bool(row[12]),
                stream=stream_names[stream],
            )
            for row, stream in zip(rows, streams)
        ]
        trace = TrafficTrace(
            records,
            num_initiators=len(initiator_names),
            num_targets=len(target_names),
            total_cycles=int(header["total_cycles"]),
            target_names=target_names,
            initiator_names=initiator_names,
        )
        if trace_fingerprint(trace) != header["trace_fingerprint"]:
            raise ValueError("collect-run records do not match their header")
        return cls(
            trace=trace,
            stats=_stats_from_payload(header["stats"]),
            fingerprint=fingerprint,
        )


@dataclass(frozen=True)
class CollectedTraffic:
    """Phase 1 output: a full-crossbar traffic trace, content-addressed.

    ``fingerprint`` is the trace's record-level content hash
    (:func:`repro.exec.fingerprint.trace_fingerprint`), so two traces
    with equal records share every downstream artifact regardless of how
    they were produced.
    """

    trace: TrafficTrace
    fingerprint: str
    label: str = ""

    @classmethod
    def from_trace(
        cls, trace: TrafficTrace, label: str = ""
    ) -> "CollectedTraffic":
        return cls(trace=trace, fingerprint=trace_fingerprint(trace), label=label)


@dataclass(frozen=True)
class WindowedAnalysis:
    """Phase 2 output: one crossbar side's windowed design problem.

    ``mirrored`` distinguishes the target->initiator side (designed on
    the mirrored trace) from the initiator->target side.
    """

    problem: CrossbarDesignProblem
    mirrored: bool
    fingerprint: str

    def describe(self) -> str:
        return self.problem.describe()


@dataclass(frozen=True)
class ConflictArtifact:
    """Phase 3 output: the conflict matrix for one windowed analysis."""

    conflicts: ConflictAnalysis
    fingerprint: str

    def describe(self) -> str:
        return f"{self.conflicts.num_conflicts} conflicting pairs"


@dataclass(frozen=True)
class BindingArtifact:
    """Phase 4 output: the configuration search and optimized binding."""

    search: SearchOutcome
    binding: BusBinding
    fingerprint: str

    def describe(self) -> str:
        return (
            f"{self.binding.num_buses} buses, "
            f"{len(self.search.probes)} probes, "
            f"maxov {self.binding.max_bus_overlap}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding for the persistent stage store."""
        return {
            "search": {
                "num_buses": self.search.num_buses,
                "feasible_binding": list(self.search.feasible_binding),
                "lower_bound": self.search.lower_bound,
                "probes": {str(k): v for k, v in self.search.probes.items()},
            },
            "binding": {
                "binding": list(self.binding.binding),
                "num_buses": self.binding.num_buses,
                "max_bus_overlap": self.binding.max_bus_overlap,
                "optimal": self.binding.optimal,
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], fingerprint: str
    ) -> "BindingArtifact":
        """Decode a payload written by :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        payloads; the store treats those as misses.
        """
        search_payload = payload["search"]
        binding_payload = payload["binding"]
        search = SearchOutcome(
            num_buses=int(search_payload["num_buses"]),
            feasible_binding=tuple(search_payload["feasible_binding"]),
            lower_bound=int(search_payload["lower_bound"]),
            probes={
                int(k): bool(v) for k, v in search_payload["probes"].items()
            },
        )
        binding = BusBinding(
            binding=tuple(binding_payload["binding"]),
            num_buses=int(binding_payload["num_buses"]),
            max_bus_overlap=int(binding_payload["max_bus_overlap"]),
            optimal=bool(binding_payload["optimal"]),
        )
        return cls(search=search, binding=binding, fingerprint=fingerprint)


def _stats_payload(stats: LatencyStats) -> Dict[str, Any]:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "maximum": stats.maximum,
        "minimum": stats.minimum,
        "p95": stats.p95,
    }


def _stats_from_payload(payload: Dict[str, Any]) -> LatencyStats:
    return LatencyStats(
        count=int(payload["count"]),
        mean=float(payload["mean"]),
        maximum=int(payload["maximum"]),
        minimum=int(payload["minimum"]),
        p95=float(payload["p95"]),
    )


@dataclass(frozen=True)
class ReplayArtifact:
    """Latency-replay stage output: one workload simulated on one fabric.

    The artifact carries only the observed statistics -- never the live
    design or trace objects -- so it round-trips through JSON and
    persists in the artifact store's disk layer: suite re-runs and
    cross-process reruns reuse simulated latencies instead of
    re-simulating.
    """

    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool
    num_transactions: int
    simulated_cycles: int
    fingerprint: str
    label: str = ""

    def describe(self) -> str:
        mean = self.stats.mean if self.stats.count else 0.0
        return (
            f"{self.num_transactions} packets, avg latency {mean:.1f} cy, "
            f"{'finished' if self.finished else 'budget-capped'}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding for the persistent stage store."""
        return {
            "stats": _stats_payload(self.stats),
            "critical_stats": _stats_payload(self.critical_stats),
            "finished": self.finished,
            "num_transactions": self.num_transactions,
            "simulated_cycles": self.simulated_cycles,
            "label": self.label,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], fingerprint: str
    ) -> "ReplayArtifact":
        """Decode a payload written by :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        payloads; the store treats those as misses.
        """
        return cls(
            stats=_stats_from_payload(payload["stats"]),
            critical_stats=_stats_from_payload(payload["critical_stats"]),
            finished=bool(payload["finished"]),
            num_transactions=int(payload["num_transactions"]),
            simulated_cycles=int(payload["simulated_cycles"]),
            fingerprint=fingerprint,
            label=str(payload.get("label", "")),
        )
