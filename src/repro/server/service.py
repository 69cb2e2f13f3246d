"""The synthesis service: jobs wired to the platform underneath.

:class:`SynthesisService` is the HTTP-free core of the daemon -- the
app layer (:mod:`repro.server.app`) only translates requests into
:meth:`SynthesisService.submit` / job lookups / :meth:`stats` calls, so
everything here is directly testable without sockets.

One service owns:

* one :class:`~repro.exec.engine.ExecutionEngine` (shared whole-result
  :class:`~repro.exec.cache.ResultCache` and parallelism budget); suite
  jobs run on job-scoped engines (:meth:`ExecutionEngine.scoped`)
  sharing that cache instance, so concurrent jobs never contend on a
  pool but do share every solved point;
* one :class:`~repro.server.coalesce.RequestCoalescer` keyed by request
  content fingerprints -- identical in-flight requests share a single
  solve, repeated finished requests are served from the registry;
* one :class:`~repro.server.jobs.JobQueue` of daemon workers.

Warm paths stack beneath the coalescer: a design request whose task key
is already in the whole-result cache completes instantly (disposition
``"cached"``) without ever enqueueing, and a request that must run still
reuses persisted stage artifacts (windows, conflicts, bindings) through
its job-scoped :class:`~repro.pipeline.PipelineRunner` store.

Per-job progress is streamed by subscribing the job's
:meth:`~repro.server.jobs.Job.record_progress` to the runner's
:class:`~repro.pipeline.store.StageCounters`; pollers see live
per-stage computed/memo-hit/disk-hit tallies while the job runs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import CrossbarSynthesizer, SynthesisConfig
from repro.core.instrumentation import SOLVE_COUNTER
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine
from repro.exec.fingerprint import task_key, trace_fingerprint
from repro.exec.serialize import (
    RESULT_FORMAT,
    SynthesisResult,
    result_to_dict,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.jsonlog import JsonLogger
from repro.pipeline import ArtifactStore, PipelineRunner
from repro.resilience import fault_summary
from repro.server.coalesce import RequestCoalescer
from repro.server.jobs import Job, JobQueue
from repro.server.schemas import (
    DesignRequest,
    SuiteRequest,
    parse_job_request,
)

__all__ = ["SynthesisService", "ServiceOverloaded", "DESIGN_REPORT_FORMAT"]

DESIGN_REPORT_FORMAT = "repro-server-design-v1"

_REQUESTS_TOTAL = _metrics.counter(
    "repro_requests_total",
    "Admitted job requests by disposition (new/coalesced/finished/"
    "cached/shed).",
    ("disposition",),
)
_QUEUE_DEPTH = _metrics.gauge(
    "repro_queue_depth", "Jobs admitted but not yet picked up by a worker."
)
_JOBS_ACTIVE = _metrics.gauge(
    "repro_jobs_active", "Jobs currently executing on a worker thread."
)


class ServiceOverloaded(RuntimeError):
    """The job queue is at capacity; the request was shed, not queued.

    Raised from admission (inside the coalescer's ``create`` callback,
    so nothing is registered for the shed fingerprint) when
    ``max_queue_depth`` is configured and reached. The app layer maps
    it to ``503`` with a ``Retry-After`` header -- load shedding is an
    invitation to come back, not a failure of the request itself.
    """

    def __init__(self, depth: int, retry_after: float = 1.0) -> None:
        super().__init__(
            f"job queue at capacity ({depth} queued); retry shortly"
        )
        self.depth = depth
        self.retry_after = retry_after


class SynthesisService:
    """Content-addressed synthesis jobs over the execution platform.

    Parameters
    ----------
    engine_jobs:
        Process-pool width of each job's engine (1 = serial in the
        worker thread).
    cache_dir:
        Whole-result/stage cache directory; ``None`` disables every
        disk layer (in-flight coalescing still works).
    workers:
        Concurrent job slots in the queue.
    job_timeout:
        Per-job wall-clock bound in seconds (see
        :class:`~repro.server.jobs.JobQueue`); ``None`` disables it.
    finished_ttl:
        Seconds finished jobs stay answerable from the registries
        (job index and coalescer alike) before eviction; ``None``
        keeps them forever.
    max_queue_depth:
        Admission bound: a *new* request arriving while this many jobs
        are already queued is shed with :class:`ServiceOverloaded`
        (503 at the HTTP layer). Coalesced/finished/cached requests
        are never shed -- they cost no queue slot. ``None`` disables
        shedding.
    trace:
        Arm span tracing for the service's lifetime (the default): each
        executed job gets its own trace tree, retrievable via
        :meth:`job_trace` (``GET /v1/jobs/<id>/trace``). When tracing
        was already armed by the caller, the service joins it and
        leaves disarming to whoever armed it.
    log:
        An optional :class:`~repro.obs.jsonlog.JsonLogger`; when given,
        one JSON object per admission and job transition goes to
        stderr (the ``repro serve --log-json`` mode).
    """

    def __init__(
        self,
        engine_jobs: int = 1,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        job_timeout: Optional[float] = None,
        finished_ttl: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        trace: bool = True,
        log: Optional[JsonLogger] = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 or None")
        self.log = log
        self._armed_tracing = False
        if trace and not _tracing.tracing_enabled():
            _tracing.arm_tracing()
            self._armed_tracing = True
        self.engine = ExecutionEngine(jobs=engine_jobs, cache=cache_dir)
        self.coalescer = RequestCoalescer(finished_ttl=finished_ttl)
        self.queue = JobQueue(
            self._execute, workers=workers, job_timeout=job_timeout
        )
        self.finished_ttl = finished_ttl
        self.max_queue_depth = max_queue_depth
        self._stats_lock = threading.Lock()
        self._cached_hits = 0
        self._shed = 0
        self._solves = 0
        # Solver-level observability: every MILP/assignment solve in
        # this process tallies here (job threads and the serial path
        # alike; pool workers solve in children, which is precisely the
        # signal -- in-process solves are the coalescable ones).
        self._solve_observer = self._on_solve
        SOLVE_COUNTER.subscribe(self._solve_observer)
        # Queue gauges are callback-backed: sampled at scrape time, so
        # they are always current and cost nothing between scrapes.
        _QUEUE_DEPTH.set_function(self.queue.depth)
        _JOBS_ACTIVE.set_function(self.queue.active)

    def _on_solve(self, kind: str) -> None:
        with self._stats_lock:
            self._solves += 1

    def close(self, drain: bool = True) -> None:
        """Stop the queue (draining by default) and detach observers."""
        self.queue.shutdown(drain=drain)
        try:
            SOLVE_COUNTER.unsubscribe(self._solve_observer)
        except ValueError:  # pragma: no cover - already detached
            pass
        _QUEUE_DEPTH.set_function(None)
        _JOBS_ACTIVE.set_function(None)
        if self._armed_tracing:
            _tracing.disarm_tracing()
            self._armed_tracing = False

    # -- admission ----------------------------------------------------

    def submit(self, payload: Any) -> Tuple[Job, str]:
        """Parse, content-address, coalesce and (if new) enqueue.

        Returns ``(job, disposition)`` where disposition extends the
        coalescer's vocabulary with ``"cached"``: the request was new to
        the registry but its result was already in the whole-result
        cache, so the job completed synchronously without queueing.

        Raises :class:`~repro.server.schemas.RequestError` on malformed
        payloads -- nothing invalid is ever admitted -- and
        :class:`ServiceOverloaded` when a genuinely new request finds
        the queue at its configured depth bound (shedding happens
        inside the coalescer's ``create`` callback, so a shed request
        leaves no registry entry behind and coalesced/finished/cached
        answers are never shed).
        """
        request = parse_job_request(payload)
        fingerprint = request.fingerprint()
        self._evict_expired()
        job, disposition = self.coalescer.admit(
            fingerprint,
            lambda: self._admit_new(request, fingerprint),
        )
        if disposition != "new":
            self._record_admission(fingerprint, disposition)
            return job, disposition
        warm = self._warm_lookup(request)
        if warm is not None:
            with self._stats_lock:
                self._cached_hits += 1
            job.mark_done(warm)
            self._record_admission(fingerprint, "cached")
            return job, "cached"
        self.queue.submit(job)
        self._record_admission(fingerprint, "new")
        return job, "new"

    def _record_admission(self, fingerprint: str, disposition: str) -> None:
        _REQUESTS_TOTAL.inc(disposition=disposition)
        if self.log is not None:
            self.log.emit(
                "request.admitted",
                fingerprint=fingerprint,
                disposition=disposition,
            )

    def _admit_new(self, request, fingerprint: str) -> Job:
        """The coalescer's ``create`` callback: shed or index a job."""
        if self.max_queue_depth is not None:
            depth = self.queue.depth()
            if depth >= self.max_queue_depth:
                with self._stats_lock:
                    self._shed += 1
                self._record_admission(fingerprint, "shed")
                raise ServiceOverloaded(depth)
        return self.queue.new_job(request, fingerprint)

    def _evict_expired(self) -> None:
        """Opportunistic TTL maintenance (no background thread needed:
        any submit or stats read sweeps both registries)."""
        if self.finished_ttl is None:
            return
        for job in self.queue.evict_terminal(self.finished_ttl):
            self.coalescer.forget(job.fingerprint)

    def cancel(self, job_id: str) -> Optional[bool]:
        """Cancel a queued job: ``True`` if cancelled, ``False`` if the
        job exists but is running or terminal, ``None`` if unknown."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        return job.cancel()

    def _warm_lookup(self, request) -> Optional[Dict[str, Any]]:
        """A completed result from the persistent caches, or ``None``.

        Design points are whole-result cached under their task key, so
        a restarted daemon still answers repeat requests without
        queueing them. Suite reports are not whole-result cached (their
        stage artifacts are), so suites always queue -- their warm path
        is fast, not instant.
        """
        if not isinstance(request, DesignRequest):
            return None
        if self.engine.cache is None:
            return None
        trace, config, window = self._design_inputs(request)
        key = task_key(
            trace_fingerprint(trace), config, window, request.app
        )
        cached = self.engine.cache.get(key)
        if cached is None:
            return None
        return self._design_payload(request, trace, config, window, cached)

    # -- execution ----------------------------------------------------

    def _execute(self, job: Job) -> Dict[str, Any]:
        request = job.request
        began = time.perf_counter()
        if self.log is not None:
            self.log.emit(
                "job.started",
                job=job.id,
                kind=request.kind,
                fingerprint=job.fingerprint,
            )
        try:
            with _tracing.root_span(
                f"job.{request.kind}",
                job=job.id,
                fingerprint=job.fingerprint[:12],
            ) as root:
                # Published immediately, not on completion: pollers of a
                # running job can already follow its partial trace.
                job.trace_id = root.trace_id or None
                if isinstance(request, DesignRequest):
                    result = self._run_design(job, request)
                elif isinstance(request, SuiteRequest):
                    result = self._run_suite(job, request)
                else:  # pragma: no cover - parser admits only known kinds
                    raise TypeError(
                        f"no executor for request type "
                        f"{type(request).__name__}"
                    )
        except Exception as error:
            if self.log is not None:
                self.log.emit(
                    "job.finished",
                    job=job.id,
                    state="failed",
                    error=f"{type(error).__name__}: {error}",
                    duration_s=round(time.perf_counter() - began, 6),
                    trace_id=job.trace_id,
                )
            raise
        if self.log is not None:
            self.log.emit(
                "job.finished",
                job=job.id,
                state="done",
                duration_s=round(time.perf_counter() - began, 6),
                trace_id=job.trace_id,
            )
        return result

    def _job_runner(self) -> PipelineRunner:
        """A job-scoped stage runner persisting through the shared
        cache directory (separate :class:`ResultCache` instance, same
        accounting discipline as the suite runner's)."""
        disk = None
        if self.engine.cache is not None:
            disk = ResultCache(self.engine.cache.cache_dir)
        return PipelineRunner(
            store=ArtifactStore(disk=disk), memoize_bindings=True
        )

    @staticmethod
    def _design_inputs(request: DesignRequest):
        from repro.apps import default_full_crossbar_trace

        trace = default_full_crossbar_trace(request.app)
        config = SynthesisConfig(
            window_size=request.window,
            overlap_threshold=request.threshold,
            max_targets_per_bus=request.maxtb,
            backend=request.backend,
        )
        return trace, config, request.resolved_window()

    def _design_payload(
        self,
        request: DesignRequest,
        trace,
        config: SynthesisConfig,
        window: int,
        result: SynthesisResult,
    ) -> Dict[str, Any]:
        runner = PipelineRunner()  # fingerprint derivation only
        return {
            "format": DESIGN_REPORT_FORMAT,
            "app": request.app,
            "window": window,
            "design_fingerprint": runner.design_fingerprint(
                trace_fingerprint(trace), config, window
            ),
            "result": result_to_dict(result),
            "result_format": RESULT_FORMAT,
        }

    def _run_design(
        self, job: Job, request: DesignRequest
    ) -> Dict[str, Any]:
        trace, config, window = self._design_inputs(request)
        runner = self._job_runner()
        runner.counters.subscribe(job.record_progress)
        try:
            report = CrossbarSynthesizer(
                config, pipeline=runner
            ).design_from_trace(trace, window)
        finally:
            runner.counters.unsubscribe(job.record_progress)
        result = SynthesisResult.from_report(report)
        if self.engine.cache is not None:
            key = task_key(
                trace_fingerprint(trace), config, window, request.app
            )
            self.engine.cache.put(key, result)
        return self._design_payload(request, trace, config, window, result)

    def _run_suite(self, job: Job, request: SuiteRequest) -> Dict[str, Any]:
        from repro.scenarios import (
            ScenarioSuiteRunner,
            build_suite,
            suite_from_dict,
        )

        if request.suite:
            suite = build_suite(request.suite)
        else:
            suite = suite_from_dict(request.suite_dict())
        runner = ScenarioSuiteRunner(
            engine=self.engine.scoped(),
            config=SynthesisConfig(
                overlap_threshold=request.threshold,
                max_targets_per_bus=request.maxtb,
            ),
            policy=request.policy,
            min_weight=request.min_weight,
            replay_latency=request.replay_latency,
            pipeline=self._job_runner(),
        )
        runner.pipeline.counters.subscribe(job.record_progress)
        try:
            report = runner.run(suite)
        finally:
            runner.pipeline.counters.unsubscribe(job.record_progress)
        return report.to_dict()

    # -- observability ------------------------------------------------

    def job_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The span tree of one job (``GET /v1/jobs/<id>/trace``).

        ``None`` for unknown jobs. A known job whose tracing was
        disarmed (or that has not started) answers with an empty span
        list rather than a 404 -- the job exists, it just has no trace.
        Worker-process spans are merged in from the spool directory, so
        a finished pool job's tree includes its child-process solves.
        """
        job = self.queue.get(job_id)
        if job is None:
            return None
        spans: List[Dict[str, Any]] = []
        if job.trace_id is not None:
            spans = [
                span.to_dict()
                for span in _tracing.collect_spans(trace_id=job.trace_id)
            ]
        return {"job": job.id, "trace_id": job.trace_id, "spans": spans}

    def degraded_reasons(self) -> list:
        """Why the service considers itself degraded (empty = healthy).

        Degraded is sticky by design: the counters accumulate for the
        daemon's lifetime, so a health probe after a burst of pool
        failures still reports that something went wrong -- operators
        reset by restarting, not by waiting out a rolling window.
        """
        reasons = []
        engine = self.engine.stats.snapshot()
        if engine["serial_fallbacks"]:
            reasons.append(
                f"engine degraded to serial execution "
                f"{engine['serial_fallbacks']} time(s)"
            )
        if engine["pool_rebuilds"]:
            reasons.append(
                f"engine rebuilt a broken worker pool "
                f"{engine['pool_rebuilds']} time(s)"
            )
        timeouts = self.queue.timeouts()
        if timeouts:
            reasons.append(f"{timeouts} job(s) hit the per-job timeout")
        with self._stats_lock:
            shed = self._shed
        if shed:
            reasons.append(f"{shed} request(s) shed at the queue bound")
        return reasons

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` payload: liveness plus degradation."""
        reasons = self.degraded_reasons()
        return {
            "status": "degraded" if reasons else "ok",
            "degraded": bool(reasons),
            "reasons": reasons,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload (see docs/http-api.md)."""
        self._evict_expired()
        jobs = self.queue.jobs()
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        payload: Dict[str, Any] = {
            "queue": {
                "depth": self.queue.depth(),
                "active": self.queue.active(),
                "jobs": states,
                "timeouts": self.queue.timeouts(),
                "job_timeout": self.queue.job_timeout,
            },
            "coalescing": self.coalescer.stats(),
            "shedding": {
                "max_queue_depth": self.max_queue_depth,
            },
            "engine": self.engine.stats.snapshot(),
            "faults": fault_summary(),
        }
        # Atomic snapshots, not field-by-field reads: the old code read
        # ``SOLVE_COUNTER.feasibility`` and ``.binding`` (and the cache
        # stat fields below) as separate unlocked attribute reads, so a
        # concurrent solve could make the two numbers disagree with
        # each other and with their total. One locked cut per source.
        solves = SOLVE_COUNTER.snapshot()
        payload["solves"] = {
            "feasibility": solves["feasibility"],
            "binding": solves["binding"],
            "by_backend": solves["by_backend"],
        }
        # Solver-tier visibility: the default MILP backend this process
        # would resolve right now.
        from repro.milp import resolve_default_backend

        try:
            default_backend = resolve_default_backend()
        except Exception:  # noqa: BLE001 - a bad env var must not 500 /v1/stats
            default_backend = "invalid"
        payload["milp"] = {"backend": default_backend}
        with self._stats_lock:
            payload["solves"]["in_process"] = self._solves
            payload["coalescing"]["cached_hits"] = self._cached_hits
            payload["shedding"]["shed"] = self._shed
        cache = self.engine.cache
        if cache is not None:
            usage = cache.usage()
            cache_stats = cache.stats_snapshot()
            payload["cache"] = {
                "dir": str(cache.cache_dir),
                "entries": usage.entries,
                "total_bytes": usage.total_bytes,
                "hits": cache_stats["hits"],
                "misses": cache_stats["misses"],
                "stores": cache_stats["stores"],
                "write_errors": cache_stats["write_errors"],
            }
        else:
            payload["cache"] = None
        return payload
