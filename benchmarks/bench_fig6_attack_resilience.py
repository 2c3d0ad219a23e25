"""Figure 6 — attack resilience and node cost vs malicious rate.

Regenerates all four panels from the registered ``fig6a``…``fig6d``
scenarios:

- (a) resilience R vs p, N = 10,000   - (b) required nodes C vs p, N = 10,000
- (c) resilience R vs p, N = 100      - (d) required nodes C vs p, N = 100

Each benchmark prints its figure as a table: one row per p, one column per
scheme (central / disjoint / joint), analytic values with Monte-Carlo
verification at the paper's sweep points.
"""

from conftest import (
    bench_sweep,
    bench_trials,
    curves,
    record_bench,
    record_wall,
    run_once,
    time_call,
)

from repro.experiments.reporting import format_sweep_table
from repro.util.stats import wilson_proportion_ci

BENCH = "fig6"


def _print_resilience(title, report):
    axes, records = report.spec.axis_names, list(report.records)
    print()
    print(format_sweep_table(f"{title} — analytic", axes, records, "analytic_worst"))
    print()
    print(format_sweep_table(f"{title} — Monte Carlo", axes, records))


def _print_costs(title, report):
    print()
    print(
        format_sweep_table(
            title,
            report.spec.axis_names,
            list(report.records),
            value_key="cost",
            value_format="{:.0f}",
        )
    )


def test_fig6a_resilience_10000(benchmark):
    report = run_once(benchmark, bench_sweep, "fig6a", trials=bench_trials())
    _print_resilience("Fig 6(a): attack resilience R vs p (N=10000)", report)
    joint = curves(report, "analytic_worst")["scheme=joint"]
    assert joint[0.3] > 0.99  # paper: R > 0.99 before p = 0.34
    assert joint[0.4] > 0.9  # paper: R > 0.9 before p = 0.42
    record_bench(
        BENCH,
        benchmark,
        trials=report.trials_run,
        population=10000,
        kernel="vectorized",
    )


def test_fig6b_cost_10000(benchmark):
    report = run_once(benchmark, bench_sweep, "fig6b")
    _print_costs("Fig 6(b): required nodes C vs p (N=10000)", report)
    joint = curves(report, "cost")["scheme=joint"]
    assert joint[0.15] < 100
    assert joint[0.35] > 5000  # cost explosion toward the 10,000 cap
    record_bench(BENCH, benchmark, population=10000, kernel="analytic")


def test_fig6c_resilience_100(benchmark):
    report = run_once(benchmark, bench_sweep, "fig6c", trials=bench_trials())
    _print_resilience("Fig 6(c): attack resilience R vs p (N=100)", report)
    # Paper: the DHT scale does not influence resilience dramatically —
    # the joint scheme still dominates and stays high for moderate p.
    worst = curves(report, "analytic_worst")
    joint, central = worst["scheme=joint"], worst["scheme=central"]
    for p in (0.1, 0.2, 0.3):
        assert joint[p] > central[p]
    assert joint[0.2] > 0.95
    record_bench(
        BENCH,
        benchmark,
        trials=report.trials_run,
        population=100,
        kernel="vectorized",
    )


def test_fig6d_cost_100(benchmark):
    report = run_once(benchmark, bench_sweep, "fig6d")
    _print_costs("Fig 6(d): required nodes C vs p (N=100)", report)
    # Costs are clamped by the tiny network.
    assert all(cost <= 100 for cost in curves(report, "cost")["scheme=joint"].values())
    record_bench(BENCH, benchmark, population=100, kernel="analytic")


def test_fig6_kernel_speedup(benchmark):
    """The vectorised lane vs the scalar oracle on the same N=10,000 sweep.

    Runs the full ``fig6a`` sweep through both Monte-Carlo lanes (pinned
    through ``fixed["kernel"]``, as ``sweep run --kernel`` does) with the
    same seed and trial budget, then

    - asserts the vectorised kernel is strictly faster (the CI perf-smoke
      gate; locally the ratio is >= 10x at default trials),
    - asserts the lanes are statistically equivalent: per measured point
      and per channel, the Wilson intervals overlap.  66 comparisons run
      simultaneously, so each uses z = 3.29 (99.9%) — at 95% a pinned seed
      has an even-odds chance of one legitimate ~2-sigma excursion tripping
      the gate (both lanes verifiably converge to the analytic curve),
    - records both lanes' trials/second and the speedup in BENCH_fig6.json.
    """
    trials = bench_trials()
    vectorized = run_once(
        benchmark, bench_sweep, "fig6a", trials=trials, kernel="vectorized"
    )
    scalar, scalar_wall = time_call(
        bench_sweep, "fig6a", trials=trials, kernel="scalar"
    )

    overlaps = 0
    checked = 0
    for fast, slow in zip(vectorized.results(), scalar.results()):
        assert (fast["scheme"], fast["p"]) == (slow["scheme"], slow["p"])
        if fast["measured"] is None or slow["measured"] is None:
            continue
        for channel in ("release", "drop"):
            fast_est = fast["measured"][channel]
            slow_est = slow["measured"][channel]
            _, fast_low, fast_high = wilson_proportion_ci(
                fast_est["successes"], fast_est["trials"], z_score=3.29
            )
            _, slow_low, slow_high = wilson_proportion_ci(
                slow_est["successes"], slow_est["trials"], z_score=3.29
            )
            checked += 1
            overlap = fast_low <= slow_high and slow_low <= fast_high
            overlaps += overlap
            assert overlap, (
                f"{fast['scheme']} p={fast['p']} {channel}: "
                f"[{fast_low:.4f}, {fast_high:.4f}] vs "
                f"[{slow_low:.4f}, {slow_high:.4f}] do not overlap"
            )

    record = record_bench(
        BENCH,
        benchmark,
        trials=vectorized.trials_run,
        population=10000,
        kernel="vectorized-vs-scalar",
        scalar_wall_seconds=round(scalar_wall, 6),
        scalar_trials_per_second=round(scalar.trials_run / scalar_wall, 3),
        speedup=round(scalar_wall / record_wall(benchmark), 2)
        if record_wall(benchmark)
        else None,
        wilson_overlap=f"{overlaps}/{checked}",
    )
    print()
    print(
        f"Fig 6 kernel speedup: vectorized {record['trials_per_second']} "
        f"trials/s vs scalar {record['scalar_trials_per_second']} trials/s "
        f"({record['speedup']}x), Wilson overlap {overlaps}/{checked}"
    )
    # The CI gate: the vectorised kernel must never be slower than the
    # scalar oracle on the same sweep.
    assert record["speedup"] is not None and record["speedup"] > 1.0
