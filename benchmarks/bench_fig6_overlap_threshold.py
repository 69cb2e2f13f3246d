"""Fig. 6 -- crossbar size vs overlap threshold.

Sweeping the pre-processing threshold from 0% to 50% of the window on
the synthetic benchmark: at 0% any overlapping pair is separated
(contention-free over-design, near-full crossbar); relaxing the
threshold lets the bandwidth constraints take over and the crossbar
shrinks. The plot ends at 50% because beyond it the window bandwidth
constraint is violated anyway (Sec. 7.4).

The timed kernel is the full threshold sweep (assignment backend, for
baseline comparability); an untimed tier split then re-solves a
threshold subset through each exact MILP backend tier
(``--milp-backend``) and charts seconds per threshold per tier.
"""

import time

from repro.analysis import bar_chart, format_table, overlap_threshold_sweep
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig

from _bench_utils import emit, engine_from_env, note_kernel_speedup

THRESHOLDS = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50]
WINDOW = 2_000  # twice the typical burst

MILP_TIERS = ("highs",)
TIER_THRESHOLDS = [0.0, 0.20, 0.50]


def test_fig6_overlap_threshold_sweep(benchmark, results_dir):
    trace = synthetic_trace(burst_cycles=1_000, total_cycles=120_000, seed=3)
    config = SynthesisConfig(max_targets_per_bus=None)
    engine = engine_from_env()

    points = benchmark.pedantic(
        lambda: overlap_threshold_sweep(trace, THRESHOLDS, WINDOW, config, engine=engine),
        rounds=1,
        iterations=1,
    )
    note_kernel_speedup(benchmark)

    table = format_table(
        ["threshold", "IT buses"],
        [[f"{point.value:.0%}", point.it_buses] for point in points],
        title=(
            "Fig. 6: IT crossbar size vs overlap threshold "
            f"(synthetic benchmark, window {WINDOW} cy)"
        ),
    )
    chart = bar_chart(
        [f"{point.value:.0%}" for point in points],
        [point.it_buses for point in points],
        title="IT crossbar size vs overlap threshold",
        unit=" buses",
    )
    emit(results_dir, "fig6", table + "\n\n" + chart)

    # PR 9 follow-up: the same design points through each exact MILP
    # backend tier. The sweep above warmed the shared window store
    # (threshold lives in the conflict stage, so every threshold shares
    # one window fingerprint) -- the split isolates solver cost.
    reference = {point.value: point.it_buses for point in points}
    tier_split = {}
    for tier in MILP_TIERS:
        tier_config = SynthesisConfig(
            max_targets_per_bus=None, backend="milp", milp_backend=tier
        )
        per_threshold = {}
        for threshold in TIER_THRESHOLDS:
            begin = time.perf_counter()
            (point,) = overlap_threshold_sweep(
                trace, [threshold], WINDOW, tier_config, engine=engine
            )
            per_threshold[threshold] = round(
                time.perf_counter() - begin, 4
            )
            assert point.it_buses == reference[threshold], (
                f"milp:{tier} disagrees with assignment at {threshold:.0%}"
            )
        tier_split[tier] = per_threshold
    benchmark.extra_info["milp_tier_split_s"] = tier_split

    tier_table = format_table(
        ["threshold"] + [f"{tier} (s)" for tier in MILP_TIERS],
        [
            [f"{threshold:.0%}"]
            + [tier_split[tier][threshold] for tier in MILP_TIERS]
            for threshold in TIER_THRESHOLDS
        ],
        title=(
            "Fig. 6 sweep, MILP backend tier split "
            "(seconds per design point, windows pre-warmed)"
        ),
    )
    tier_charts = [
        bar_chart(
            [f"{threshold:.0%}" for threshold in TIER_THRESHOLDS],
            [
                tier_split[tier][threshold] * 1e3
                for threshold in TIER_THRESHOLDS
            ],
            title=f"milp:{tier} ms per threshold",
            unit=" ms",
        )
        for tier in MILP_TIERS
    ]
    emit(
        results_dir,
        "fig6_milp_tiers",
        "\n\n".join([tier_table] + tier_charts),
    )

    sizes = [point.it_buses for point in points]
    # monotone non-increasing in the threshold
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # strict 0% threshold over-designs vs the 50% end
    assert sizes[0] > sizes[-1]
    # 0% is near the full crossbar for this heavily synchronized traffic
    assert sizes[0] >= 0.8 * trace.num_targets
