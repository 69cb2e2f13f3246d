"""The ``serve-open`` workload: an open-loop client against ``repro serve``.

One client process, two threads, two keep-alive connections. The sender
writes each ``POST /v1/jobs`` at its due time without waiting for
earlier answers (HTTP/1.1 pipelining); a reader thread takes the
answers off the same connection in order. Completion is the job's own
``finished_at``, so a slow daemon does not slow the sender down; the
second connection only long-polls outstanding jobs between phases and
reads ``/v1/jobs`` and ``/v1/stats`` at the end.

Every run starts three daemons. Each one's first use is timed one
request at a time: one design per app (the warm-up), then fresh mat1
designs at never-seen thresholds (the probes). The last daemon then
takes the open-loop load at a fixed 16 requests/s; a traced run adds a
phase at 8 requests/s before it and one at 40 requests/s, more than the
daemon can serve, after it. A request's latency runs from its due time
to its answer. The gated metrics are the median latency at 16
requests/s, the mean warm-up wall time and the median probe latency.
The medians of the other phases, every phase's tail and the capacity
(completion rate once a phase falls behind) are printed but not gated:
on a shared two-CPU host their run-to-run spread comes close to or
beyond the largest bound the benchmark may set.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

from cli_workloads import PAPER_APPS
from common import (
    PROCESS_TIMEOUT_S,
    TRACER,
    child_env,
    layer_breakdown,
    load_spans,
    median,
    peak_child_rss_mb,
    run_repro,
    tail,
)

DAEMON_STARTS = 3
# Fresh designs each daemon runs one at a time after its warm-up.
PROBES = 15
# Per phase: offered rate (requests/s), share of ``--seconds`` and the
# least number of cycles.
# The low phase is always five cycles, so that its tail (the eleventh
# slowest of 130) is the middle suite; high and over share the rest of
# ``--seconds``. Over offers more than the daemon can serve.
LOW_CYCLES = 5
PHASES = (("low", 8.0, None, LOW_CYCLES), ("high", 16.0, 0.6, 3),
          ("over", 40.0, 0.15, 6))
# Tail-latency limit a phase must meet to count as sustained.
TAIL_LIMIT_MS = 2000.0
# One cycle of the request mix; a phase sends whole cycles:
#   repeat -- a design the set-up already ran (warm, answered on admission);
#   fft    -- a never-seen fft threshold (solver-bound, ~0.5 s);
#   suite  -- the smoke scenario suite at a never-seen threshold;
#   fresh  -- a never-seen mat1 threshold (~45 ms);
#   pair   -- two identical fresh mat1 designs back to back (coalesce).
# The slots are fixed so that a tail percentile lands inside one class
# on every seed: at the low rate every job runs alone.
CYCLE = (
    "fft", "repeat", "repeat", "repeat", "repeat", "repeat", "fresh",
    "repeat", "repeat", "repeat", "repeat", "pair", "repeat", "repeat",
    "repeat", "suite", "repeat", "repeat", "fresh", "repeat", "repeat",
    "suite", "repeat", "fresh", "repeat",
)
POLL_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` process; ``ready_s`` is spawn to first
    answered ``/v1/health``."""

    def __init__(self, cache_dir, env, traced=False) -> None:
        entry = [str(TRACER)] if traced else ["-m", "repro"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", "--workers",
             "2", "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.strip().rstrip("/").rsplit(":", 1)[1])
            while True:
                try:
                    status, _ = self.request("GET", "/v1/health")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - started > PROCESS_TIMEOUT_S:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=POLL_TIMEOUT_S + 10)

    def request(self, method, path, body=None, conn=None):
        own = conn is None
        conn = conn or http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=10)
        try:
            conn.request(method, path,
                         body=None if body is None else json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            if own:
                conn.close()

    def get(self, path):
        return self.request("GET", path, conn=self.conn)

    def wait(self, job_id):
        return self.get(f"/v1/jobs/{job_id}?wait={POLL_TIMEOUT_S:g}")[1]

    def stop(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Pipeline:
    """A keep-alive connection the sender writes and the reader drains."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, body: bytes) -> None:
        self.sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )

    def receive(self):
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(self.reader.read(length) or b"null")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


# -- the seeded request schedule ----------------------------------------------


class Schedule:
    """Every request of one run: phase, offset from the phase start, body."""

    def __init__(self, seed: int, seconds: float, phases=PHASES) -> None:
        self.rng = random.Random(f"serve-open:{seed}")
        self.used = {0.3}
        self.phases = []
        rest = seconds - LOW_CYCLES * len(CYCLE) / PHASES[0][1]
        for name, rate, share, least in phases:
            cycles = least if share is None else max(
                least, round(rate * rest * share / len(CYCLE))
            )
            self.phases.append((name, rate, self._phase(rate, cycles)))
        # Never-seen mat1 thresholds each daemon's first use runs alone.
        self.probes = self._thresholds(PROBES, 0.3, 0.45)

    def _thresholds(self, count, low, high):
        """``count`` never-seen thresholds, one from each of ``count``
        equal slices of ``[low, high]`` (in seeded order), so that every
        seed gets a like spread of solver costs."""
        width = (high - low) / count
        values = []
        for index in range(count):
            while True:
                value = round(low + width * (index + self.rng.random()), 4)
                if value not in self.used:
                    break
            self.used.add(value)
            values.append(value)
        self.rng.shuffle(values)
        return values

    def _phase(self, rate, cycles):
        slots = list(CYCLE) * cycles
        fft = iter(self._thresholds(slots.count("fft"), 0.05, 0.12))
        suite = iter(self._thresholds(slots.count("suite"), 0.2, 0.4))
        fresh_kinds = ("fresh", "pair")
        fresh_count = sum(1 for kind in slots if kind in fresh_kinds)
        fresh = iter(self._thresholds(fresh_count, 0.3, 0.45))
        requests = []
        for index, kind in enumerate(slots):
            if kind == "repeat":
                body = {"kind": "design", "app": self.rng.choice(PAPER_APPS)}
            elif kind == "fft":
                body = {"kind": "design", "app": "fft", "threshold": next(fft)}
            elif kind == "suite":
                body = {"kind": "suite", "suite": "smoke",
                        "threshold": next(suite)}
            else:
                body = {"kind": "design", "app": "mat1",
                        "threshold": next(fresh)}
            for _ in range(2 if kind == "pair" else 1):
                requests.append(
                    {"kind": kind, "offset": index / rate, "body": body}
                )
        return requests


# -- running a schedule -----------------------------------------------------


def run_phase(daemon, pipe, requests) -> None:
    """Send ``requests`` on schedule; fill in each one's answer."""
    inbox = queue.Queue()

    def read_answers():
        while True:
            record = inbox.get()
            if record is None:
                return
            try:
                record["status"], record["answer"] = pipe.receive()
            except (OSError, ValueError, IndexError) as error:
                record["status"], record["answer"] = 0, {"error": str(error)}
            record["answered_at"] = time.time()

    reader = threading.Thread(target=read_answers, daemon=True)
    reader.start()
    start = time.time() + 0.05
    try:
        for record in requests:
            record["due"] = start + record["offset"]
            delay = record["due"] - time.time()
            if delay > 0:
                time.sleep(delay)
            record["sent"] = time.time()
            pipe.send(json.dumps(record["body"]).encode())
            inbox.put(record)
    finally:
        inbox.put(None)
        reader.join(POLL_TIMEOUT_S)
    # Drain before the next phase, so no phase inherits a backlog.
    for record in requests:
        job = (record.get("answer") or {}).get("job")
        if job and record["answer"].get("state") not in ("done", "failed",
                                                          "cancelled"):
            daemon.wait(job)


def phase_stats(requests, jobs, limit_ms):
    """Latency of each request from its due time to its answer."""
    latencies, failed = [], 0
    for record in requests:
        job = jobs.get((record.get("answer") or {}).get("job"))
        if record.get("status") != 202 or job is None or job["state"] != "done":
            failed += 1
            latencies.append(float("inf"))
            continue
        # A repeat is answered by the POST itself (its job finished long
        # ago); a new or coalesced request completes at ``finished_at``.
        done = max(job["finished_at"], record["answered_at"])
        latencies.append(1000.0 * (done - record["due"]))
    tail_ms, percentile = tail(latencies)
    # Backlog at the last due time: queued or running jobs not yet done.
    # Repeats are answered on admission and never queue.
    first_due = min(record["due"] for record in requests)
    last_due = max(record["due"] for record in requests)
    queued = [
        record["due"] + latency / 1000.0 for record, latency in
        zip(requests, latencies) if record["kind"] != "repeat"
    ]
    job_rate = len(queued) / max(1e-9, last_due - first_due)
    outstanding = sum(1 for done in queued if done > last_due)
    growing = outstanding > max(4, job_rate * limit_ms / 1000.0)
    last_done = max(
        record["due"] + latency / 1000.0
        for record, latency in zip(requests, latencies)
    )
    fresh = [latency for record, latency in zip(requests, latencies)
             if record["kind"] != "repeat"]
    return {
        "throughput": len(requests) / (last_done - first_due),
        "p50_ms": median(latencies),
        "fresh_p50_ms": median(fresh),
        "tail_ms": tail_ms,
        "tail_pct": percentile,
        "samples": len(latencies),
        "failed": failed,
        "growing": growing,
        "passes": failed == 0 and not growing and tail_ms <= limit_ms,
    }


def capacity(phases, per_phase):
    """The highest offered rate the daemon sustains: the completion rate
    of the first phase that grows a backlog or misses the tail limit
    (``over`` offers more than the daemon can serve, so one always
    does; a higher offered rate would only grow the backlog)."""
    for name, _, _ in phases:
        if not per_phase[name]["passes"]:
            return per_phase[name]["throughput"]
    return per_phase[phases[-1][0]]["throughput"]


def render_binding(binding, names):
    return [
        f"  bus {bus}: " + ", ".join(
            names[i] for i, b in enumerate(binding["binding"]) if b == bus
        )
        for bus in range(binding["num_buses"])
    ]


def cli_binding_lines(stdout: str):
    lines = stdout.splitlines()
    start = lines.index("IT binding:")
    return [line for line in lines[start:] if line.startswith("  bus ")]


def check_against_cli(daemon, records, env, res) -> None:
    """A daemon design answer must equal the CLI's binding for the same
    (app, threshold)."""
    record = next(r for r in records if r["kind"] == "fresh")
    body = record["body"]
    status = daemon.get(f"/v1/jobs/{record['answer']['job']}")[1]
    result = status["result"]["result"]["design"]
    initiators = len(result["ti"]["binding"])
    targets = [f"pm{i}" for i in range(initiators)] + ["shared", "sem", "irq"]
    arms = [f"arm{i}" for i in range(initiators)]
    expected = (render_binding(result["it"], targets)
                + render_binding(result["ti"], arms))
    code, out, _ = run_repro(
        ["design", body["app"], "--threshold", str(body["threshold"])], env
    )
    res.op(res.check(
        "daemon design equals CLI binding",
        code == 0 and cli_binding_lines(out) == expected,
        f"{body['app']} threshold {body['threshold']}",
    ))


def first_use(daemon, probes, res):
    """A fresh daemon's first use, one request at a time: one design per
    app (the warm-up), then a mat1 design at each never-seen threshold
    in ``probes``. Returns the job ids, the warm-up's wall time and each
    probe's latency (POST to ``finished_at``) in seconds."""
    ids, latencies = set(), []

    def design(check, body):
        sent = time.time()
        status, answer = daemon.request("POST", "/v1/jobs", body)
        answer = answer or {}
        job = daemon.wait(answer["job"]) if status == 202 else {}
        res.op(res.check(check, job.get("state") == "done", str(body)))
        ids.add(answer.get("job"))
        return job.get("finished_at", float("inf")) - sent

    started = time.perf_counter()
    for app in PAPER_APPS:
        design("warm-up design done", {"kind": "design", "app": app})
    warm_s = time.perf_counter() - started
    for threshold in probes:
        latencies.append(design(
            "fresh probe done",
            {"kind": "design", "app": "mat1", "threshold": threshold},
        ))
    return ids, warm_s, latencies


def drive(daemon, schedule, res):
    """First use, then every phase; returns the warm-up's wall time, the
    probe latencies, the set-up's job ids, per-phase request records,
    the job table and the daemon's stats."""
    warm_ids, warm_s, probe_s = first_use(daemon, schedule.probes, res)
    pipe = Pipeline(daemon.port)
    loop_start = time.perf_counter()
    phases = []
    try:
        for name, rate, requests in schedule.phases:
            requests = [dict(r) for r in requests]
            run_phase(daemon, pipe, requests)
            phases.append((name, rate, requests))
    finally:
        pipe.close()
    jobs = {job["job"]: job for job in daemon.get("/v1/jobs")[1]["jobs"]}
    stats = daemon.get("/v1/stats")[1]
    for _, _, requests in phases:
        for record in requests:
            job = jobs.get((record.get("answer") or {}).get("job"))
            res.op(res.check(
                "request answered and done",
                record.get("status") == 202 and job is not None
                and job["state"] == "done",
                f"{record['body']} -> {record.get('status')}",
            ))
    return warm_s, probe_s, warm_ids, loop_start, phases, jobs, stats


def executed_jobs(jobs, warm_ids):
    """Jobs the timed loop ran (not set-up's, not answered on admission)."""
    return [
        job for job_id, job in jobs.items()
        if job_id not in warm_ids and job.get("started_at")
    ]


def server_metrics(phases, jobs, stats, warm_ids):
    records = [r for _, _, requests in phases for r in requests]
    executed = executed_jobs(jobs, warm_ids)
    events = sorted(
        [(job["submitted_at"], 1) for job in executed]
        + [(job["started_at"], -1) for job in executed]
    )
    depth = deepest = 0
    for _, step in events:
        depth += step
        deepest = max(deepest, depth)
    late = [1000.0 * (r["sent"] - r["due"]) for r in records]
    return {
        "server.post_ms": median(
            1000.0 * (r["answered_at"] - r["sent"]) for r in records
        ),
        "server.queue_wait_ms": median(
            1000.0 * (j["started_at"] - j["submitted_at"]) for j in executed
        ),
        "server.run_ms": median(
            1000.0 * (j["finished_at"] - j["started_at"]) for j in executed
        ),
        "server.coalesce_ratio": sum(
            1 for r in records if r["answer"].get("disposition") == "coalesced"
        ) / len(records),
        "server.queue_depth_max": deepest,
        "server.shed": stats["shedding"]["shed"],
        "client.late_ms": tail(late)[0],
    }


def serve_open(seed, seconds, traced, res, work):
    """``repro serve`` under an open-loop mix of warm repeats, fresh
    thresholds, suites and coalescible pairs."""
    env = child_env(PYTHONUNBUFFERED="1")
    # Only the high phase feeds a gated metric; the low and over phases
    # (ungated medians, tails and capacity) run in the traced run only,
    # which keeps an untraced run short.
    schedule = Schedule(seed, seconds, PHASES if traced else PHASES[1:2])
    setups, warm_ups, probes = [], [], []
    for index in range(0 if traced else DAEMON_STARTS - 1):
        daemon = Daemon(work / f"cache-start-{index}", env)
        try:
            setups.append(daemon.ready_s)
            res.op(True)
            _, warm_s, probe_s = first_use(daemon, schedule.probes, res)
            warm_ups.append(warm_s)
            probes.extend(probe_s)
        finally:
            daemon.stop()

    def one_run(tag, with_spans):
        run_env = env
        if with_spans:
            span_dir = work / f"spans-{tag}"
            span_dir.mkdir()
            run_env = child_env(PYTHONUNBUFFERED="1",
                                PERFBENCH_SPANS=str(span_dir),
                                PERFBENCH_REQUEST="serve-open")
        daemon = Daemon(work / f"cache-{tag}", run_env, traced=with_spans)
        try:
            setups.append(daemon.ready_s)
            res.op(True)
            outcome = drive(daemon, schedule, res)
            if not with_spans:
                check_against_cli(daemon, outcome[4][0][2], env, res)
        finally:
            daemon.stop()
        return outcome

    warm_s, probe_s, warm_ids, _, phases, jobs, stats = one_run("plain",
                                                                 False)
    warm_ups.append(warm_s)
    probes.extend(probe_s)
    per_phase = {
        name: phase_stats(requests, jobs, TAIL_LIMIT_MS)
        for name, _, requests in phases
    }
    for name, rate, _ in phases:
        s = per_phase[name]
        print(f"  {name}: {rate:g} rps offered, {s['samples']} requests, "
              f"p50 {s['p50_ms']:.1f} ms (fresh {s['fresh_p50_ms']:.1f} ms), "
              f"tail p{s['tail_pct']:.1f} "
              f"{s['tail_ms']:.1f} ms, failed {s['failed']}, growing "
              f"backlog {s['growing']}, completed {s['throughput']:.2f}/s")
    if traced:
        print(f"  capacity: {capacity(phases, per_phase):.2f} requests/s")
    if not traced:
        # The three warm-ups do the same work, so their mean spans more
        # of the run's host noise than any one of them. Fresh work is
        # timed on the probes, which run alone: in the open loop a fresh
        # job shares the interpreter with whatever else is running, and
        # its latency follows that overlap more than its own cost.
        return {
            "setup_s": median(setups),
            "peak_rss_mb": peak_child_rss_mb(),
            "first_use_s": statistics.fmean(warm_ups),
            "op_ms": per_phase["high"]["p50_ms"],
            "fresh_op_ms": 1000.0 * median(probes),
        }

    def run_seconds(jobs, warm_ids):
        return sum(j["finished_at"] - j["started_at"]
                   for j in executed_jobs(jobs, warm_ids))

    plain_run = run_seconds(jobs, warm_ids)
    _, _, warm_ids, loop_start, phases, jobs, stats = one_run("traced",
                                                              True)
    traced_run = run_seconds(jobs, warm_ids)
    # Only the timed loop: set-up's warm-up designs simulate and solve.
    metrics = layer_breakdown(
        *load_spans(work / "spans-traced", since=loop_start)
    )
    metrics.update(server_metrics(phases, jobs, stats, warm_ids))
    metrics["obs.trace_overhead_ratio"] = traced_run / plain_run
    return metrics
