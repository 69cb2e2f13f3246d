"""Fig. 5(a) -- initiator->target crossbar size vs window size.

The paper sweeps the analysis window on a 20-core synthetic benchmark
with ~1000-cycle bursts: windows much smaller than the burst give a
near-full crossbar; windows of 1-4 burst lengths compact sharply; very
large windows degenerate toward the average-traffic design.

The timed kernel is the full sweep (assignment backend, for baseline
comparability); an untimed tier split then re-solves a window subset
through each exact MILP backend tier (``--milp-backend``) and charts
seconds per window size per tier.
"""

import time

from repro.analysis import bar_chart, format_table, window_size_sweep, xy_plot
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig

from _bench_utils import emit, engine_from_env, note_kernel_speedup

BURST = 1_000
WINDOWS = [200, 300, 400, 750, 1_000, 2_000, 3_000, 4_000, 50_000, 120_000]

MILP_TIERS = ("highs", "portfolio")
TIER_WINDOWS = [200, 1_000, 4_000, 120_000]


def test_fig5a_window_size_sweep(benchmark, results_dir):
    trace = synthetic_trace(
        burst_cycles=BURST, total_cycles=120_000, seed=3
    )
    config = SynthesisConfig(max_targets_per_bus=None)
    engine = engine_from_env()

    points = benchmark.pedantic(
        lambda: window_size_sweep(trace, WINDOWS, config, engine=engine),
        rounds=1,
        iterations=1,
    )
    note_kernel_speedup(benchmark)

    table = format_table(
        ["window (cy)", "window/burst", "IT buses"],
        [
            [int(point.value), point.value / BURST, point.it_buses]
            for point in points
        ],
        title=(
            "Fig. 5(a): IT crossbar size vs window size "
            f"(synthetic 20-core benchmark, burst ~{BURST} cy)"
        ),
    )
    plot = xy_plot(
        [point.value / BURST for point in points],
        [point.it_buses for point in points],
        title="IT buses vs window/burst ratio",
        x_label="window/burst",
        y_label="buses",
    )
    emit(results_dir, "fig5a", table + "\n\n" + plot)

    sizes = {int(point.value): point.it_buses for point in points}

    # PR 9 follow-up: the same sweep points through each exact MILP
    # backend tier. The assignment sweep above already warmed the
    # window stage, so every tier resolves windows from the stage
    # cache and the split isolates *solver* cost per window size.
    # All tiers are exact -- bus counts must match point for point.
    tier_split = {}
    for tier in MILP_TIERS:
        tier_config = SynthesisConfig(
            max_targets_per_bus=None, backend="milp", milp_backend=tier
        )
        per_window = {}
        for window in TIER_WINDOWS:
            begin = time.perf_counter()
            (point,) = window_size_sweep(
                trace, [window], tier_config, engine=engine
            )
            per_window[window] = round(time.perf_counter() - begin, 4)
            assert point.it_buses == sizes[window], (
                f"milp:{tier} disagrees with assignment at window {window}"
            )
        tier_split[tier] = per_window
    benchmark.extra_info["milp_tier_split_s"] = tier_split

    tier_table = format_table(
        ["window (cy)"] + [f"{tier} (s)" for tier in MILP_TIERS],
        [
            [window] + [tier_split[tier][window] for tier in MILP_TIERS]
            for window in TIER_WINDOWS
        ],
        title=(
            "Fig. 5(a) sweep, MILP backend tier split "
            "(seconds per design point, windows pre-warmed)"
        ),
    )
    tier_charts = [
        bar_chart(
            [str(window) for window in TIER_WINDOWS],
            [tier_split[tier][window] * 1e3 for window in TIER_WINDOWS],
            title=f"milp:{tier} ms per window size",
            unit=" ms",
        )
        for tier in MILP_TIERS
    ]
    emit(
        results_dir,
        "fig5a_milp_tiers",
        "\n\n".join([tier_table] + tier_charts),
    )

    full_size = trace.num_targets
    # below the burst size: close to a full crossbar
    assert sizes[200] >= 0.8 * full_size
    # a few burst lengths: sharply compacted
    assert sizes[4_000] <= 0.6 * sizes[200]
    # monotone non-increasing across the sweep
    ordered = [point.it_buses for point in points]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
