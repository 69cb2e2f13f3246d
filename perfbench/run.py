"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload explore-warm --seed 1 --seconds 40
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` prints the end-to-end metrics of the workload (``all``
runs the three in turn). ``--trace 1`` re-runs the workload through the
span tracer in ``tracer.py`` and prints the per-layer metrics instead.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is run from this checkout's ``src`` directory; the
benchmark exits non-zero, printing no result, when it is missing.
Metric names, units and the workloads are declared in
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_workloads import explore_warm, paper_cold  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    BenchError,
    Result,
    Workdir,
    child_env,
    compile_sources,
    count_src_lines,
    import_probes,
    median,
    require_source,
)
from serve_open import serve_open  # noqa: E402

WORKLOADS = {
    "paper-cold": paper_cold,
    "explore-warm": explore_warm,
    "serve-open": serve_open,
}


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_workload(name, seed, seconds, traced, res):
    with Workdir(name) as work:
        metrics = WORKLOADS[name](seed, seconds, traced, res, work)
        if traced:
            _, probes = import_probes(child_env(), 3)
            metrics.update({
                "cli.import_s": median(p["import_s"] for p in probes),
                "cli.import_modules": probes[-1]["modules"],
                "cli.heavy_imports": probes[-1]["heavy"],
                "src.lines": count_src_lines(),
            })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
        end_to_end, per_layer = declared_metrics()
        compile_sources()
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    res = Result()
    measured = {}
    for name in names:
        metrics = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), res)
        for key, value in metrics.items():
            # ``all`` keeps each metric's largest value over the workloads.
            measured[key] = max(value, measured.get(key, value))
        print(f"== {name}")
        for key, value in sorted(metrics.items()):
            print(f"  {key:<28} {value:>14.6g}")

    declared = per_layer if args.trace else end_to_end
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        print(f"perfbench: undeclared metrics {unknown}", file=sys.stderr)
        return 2
    missing = sorted(set(declared) - set(measured))
    if args.trace:
        measured.update({key: 0 for key in missing})
    elif missing:
        print(f"perfbench: unmeasured metrics {missing}", file=sys.stderr)
        return 2
    for check, (passed, total, details) in sorted(res.checks.items()):
        verdict = "PASS" if passed == total else "FAIL"
        note = f"  ({'; '.join(details)})" if details else ""
        print(f"check {verdict} {passed}/{total} {check}{note}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            key: {"value": value, "unit": declared[key]}
            for key, value in sorted(measured.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
