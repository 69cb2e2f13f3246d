"""The two CLI workloads: ``paper-cold`` and ``explore-warm``.

Both are closed loops of one client: each ``repro`` process is started
only after the previous one exited, the way a user runs them.
"""

from __future__ import annotations

import random
import re
import time

from common import (
    cache_line,
    child_env,
    import_probes,
    layer_breakdown,
    load_spans,
    median,
    peak_child_rss_mb,
    run_repro,
    strip_cache_line,
)

PAPER_APPS = ("qsort", "mat2", "des", "fft", "mat1")
IMPORT_PROBES = 3

_ROW = re.compile(
    r"^(shared|average-traffic|windowed|full)\s+(\d+)\s+([\d.]+)\s+(\d+)\s"
)


def compare_stats(stdout: str):
    """``(design, buses, avg latency, max latency)`` rows of ``compare``."""
    return tuple(
        match.groups()
        for match in map(_ROW.match, stdout.splitlines()) if match
    )


def keep_going(started: float, seconds: float, passes, least=1) -> bool:
    """Start another pass until ``least`` ran, then only if it should
    end within ``seconds``."""
    elapsed = time.perf_counter() - started
    return (len(passes) < least
            or elapsed + sum(passes) / len(passes) <= seconds)


def setup_s(env, res) -> float:
    """Median spawn-to-exit time of a fresh ``import repro.cli``."""
    walls, _ = import_probes(env, IMPORT_PROBES)
    res.op(True)
    return median(walls)


def layer_metrics(span_dir, overhead):
    metrics = layer_breakdown(*load_spans(span_dir))
    metrics["obs.trace_overhead_ratio"] = overhead
    return metrics


# -- paper-cold --------------------------------------------------------------


def paper_cold(seed, seconds, traced, res, work):
    """``repro compare <app>`` for the five paper apps, fresh processes,
    no cache: the paper's own experiment as a user first runs it."""
    env = child_env()
    order = list(PAPER_APPS)
    random.Random(f"paper-cold:{seed}").shuffle(order)
    reference = {}

    def one_pass(run_env, is_traced=False):
        started = time.perf_counter()
        for app in order:
            code, out, _ = run_repro(["compare", app], run_env,
                                     traced=is_traced)
            ok = res.check("cli exit 0", code == 0, f"compare {app}")
            stats = compare_stats(out)
            ok &= res.check("compare prints 4 designs", len(stats) == 4, app)
            if app in reference:
                ok &= res.check(
                    "simulated stats repeat", stats == reference[app][1], app
                )
                ok &= res.check(
                    "stdout repeats byte for byte", out == reference[app][0],
                    app,
                )
            else:
                reference[app] = (out, stats)
            res.op(ok)
        return time.perf_counter() - started

    if traced:
        span_dir = work / "spans"
        span_dir.mkdir()
        plain = one_pass(env)
        with_spans = one_pass(
            child_env(PERFBENCH_SPANS=str(span_dir),
                      PERFBENCH_REQUEST="paper-cold"),
            is_traced=True,
        )
        return layer_metrics(span_dir, with_spans / plain)

    setup = setup_s(env, res)
    passes, started = [], time.perf_counter()
    while True:
        passes.append(one_pass(env))
        if not keep_going(started, seconds, passes):
            break
    # Nothing is cached, so every pass is a first use and every
    # ``compare`` runs on parameters the program has not seen.
    op_ms = 1000.0 * median(passes) / len(order)
    return {
        "setup_s": setup,
        "peak_rss_mb": peak_child_rss_mb(),
        "first_use_s": median(passes),
        "op_ms": op_ms,
        "fresh_op_ms": op_ms,
    }


# -- explore-warm ------------------------------------------------------------

# ``repro sweep-window``'s default windows; each run jitters them.
SWEEP_WINDOWS = (200, 500, 1_000, 2_000, 4_000, 20_000)
# Cold passes and least timed passes of an untraced run.
COLD_PASSES = 2
TIMED_PASSES = 3


class ExploreParams:
    """Every seeded input of one ``explore-warm`` run."""

    def __init__(self, seed: int, cache_dir: str) -> None:
        self.rng = random.Random(f"explore-warm:{seed}")
        self.windows = [
            str(round(w * self.rng.uniform(0.9, 1.1))) for w in SWEEP_WINDOWS
        ]
        self.cache_dir = cache_dir
        self.hits = [
            ("sweep-window", ["sweep-window", "--jobs", "2", "--windows",
                              *self.windows, "--cache-dir", cache_dir]),
            ("scenarios mixed", ["scenarios", "run", "mixed", "--jobs", "2",
                                 "--replay-latency", "--cache-dir",
                                 cache_dir]),
            ("design fft", ["design", "fft", "--cache-dir", cache_dir]),
        ]
        self.rng.shuffle(self.hits)
        self._used = {0.3}

    def _fresh(self, low: float, high: float) -> str:
        while True:
            value = round(self.rng.uniform(low, high), 4)
            if value not in self._used:
                self._used.add(value)
                return f"{value:.4f}"

    def misses(self):
        """A pass's fresh-parameter invocations (never seen before)."""
        return [
            ("design des", ["design", "des", "--threshold",
                            self._fresh(0.2, 0.4), "--cache-dir",
                            self.cache_dir]),
            ("design mat2 milp", ["design", "mat2", "--backend", "milp",
                                  "--milp-backend", "highs", "--threshold",
                                  self._fresh(0.2, 0.4), "--cache-dir",
                                  self.cache_dir]),
        ]


def explore_warm(seed, seconds, traced, res, work):
    """Design-space exploration against one persistent ``--cache-dir``:
    cached re-runs (hits) and seeded never-seen parameters (misses)."""
    env = child_env()
    params = ExploreParams(seed, str(work / "cache"))
    setup = None if traced else setup_s(env, res)
    cold_env = env
    if traced:
        span_dir = work / "spans"
        span_dir.mkdir()
        cold_env = child_env(PERFBENCH_SPANS=str(span_dir),
                             PERFBENCH_REQUEST="explore-warm")

    cold = {}

    def cold_pass(cache_dir):
        """The hits' invocations against an empty ``cache_dir``."""
        started = time.perf_counter()
        for name, args in params.hits:
            args = [cache_dir if a == params.cache_dir else a for a in args]
            code, out, _ = run_repro(args, cold_env, traced=traced)
            ok = res.check("cli exit 0", code == 0, name)
            hits = cache_line(out)
            ok &= res.check("cold pass misses the cache",
                            hits is not None and hits[0] == 0, name)
            ok &= res.check("cold stdout repeats",
                            cold.setdefault(name, strip_cache_line(out))
                            == strip_cache_line(out), name)
            res.op(ok)
        return time.perf_counter() - started

    # The timed passes use the first cache.
    cold_passes = [cold_pass(params.cache_dir)]

    code, serial, _ = run_repro(
        ["sweep-window", "--windows", *params.windows], env
    )
    res.op(res.check("serial sweep-window matches --jobs 2",
                     code == 0 and serial == cold["sweep-window"]))

    def one_pass(run_env, is_traced=False):
        started, rss = time.perf_counter(), []
        for name, args in params.hits:
            code, out, peak = run_repro(args, run_env, traced=is_traced)
            rss.append(peak)
            ok = res.check("cli exit 0", code == 0, name)
            hits = cache_line(out)
            ok &= res.check("warm run hits every point",
                            hits is not None and hits[0] == hits[1], name)
            ok &= res.check("warm stdout equals cold stdout",
                            strip_cache_line(out) == cold[name], name)
            res.op(ok)
        middle = time.perf_counter()
        misses = params.misses()
        for name, args in misses:
            code, out, peak = run_repro(args, run_env, traced=is_traced)
            rss.append(peak)
            ok = res.check("cli exit 0", code == 0, name)
            hits = cache_line(out)
            ok &= res.check("fresh parameters miss the cache",
                            hits is not None and hits[0] == 0, name)
            res.op(ok)
        ended = time.perf_counter()
        # The pass's wall time, its largest process and the mean wall
        # time of one invocation and of one miss.
        return {
            "wall": ended - started,
            "rss": max(rss),
            "op": (ended - started) / (len(params.hits) + len(misses)),
            "miss": (ended - middle) / len(misses),
        }

    if traced:
        plain = one_pass(env)["wall"]
        with_spans = one_pass(cold_env, is_traced=True)["wall"]
        return layer_metrics(span_dir, with_spans / plain)

    passes, started = [], time.perf_counter()
    while True:
        passes.append(one_pass(env))
        # More cold passes, each against an empty cache of its own, run
        # between timed passes, so that ``first_use_s`` is a median over
        # the whole run and not one stretch of it.
        if len(cold_passes) < COLD_PASSES:
            cold_passes.append(
                cold_pass(str(work / f"cache-{len(cold_passes)}"))
            )
        if not keep_going(started, seconds, [p["wall"] for p in passes],
                          TIMED_PASSES):
            break
    return {
        "setup_s": setup,
        # A few fresh thresholds make a much larger (or smaller) MILP;
        # the median over timed passes keeps one such pass from setting
        # the figure. Cold passes peak lower, at the scenario suite.
        "peak_rss_mb": median(p["rss"] for p in passes),
        "first_use_s": median(cold_passes),
        "op_ms": 1000.0 * median(p["op"] for p in passes),
        "fresh_op_ms": 1000.0 * median(p["miss"] for p in passes),
    }
