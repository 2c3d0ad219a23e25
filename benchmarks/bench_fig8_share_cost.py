"""Figure 8 — key-share routing cost: resilience vs node budget N.

The registered ``fig8`` scenario: α = 3, N in {100, 1000, 5000, 10000}.
Prints one column per budget (Monte Carlo) plus Algorithm 1's analytic
prediction.
"""

from conftest import bench_sweep, bench_trials, curves, record_bench, run_once

from repro.experiments.reporting import format_sweep_table


def test_fig8_share_cost(benchmark):
    report = run_once(benchmark, bench_sweep, "fig8", trials=bench_trials())
    axes, records = report.spec.axis_names, list(report.records)
    title = "Fig 8: key-share scheme resilience vs p per node budget (alpha=3)"
    print()
    print(format_sweep_table(f"{title} — Monte Carlo", axes, records))
    print()
    print(
        format_sweep_table(
            f"{title} — Algorithm 1", axes, records, "analytic_resilience"
        )
    )

    by_budget = curves(report)
    # Paper claims (§IV-B.3):
    assert by_budget["budget=10000"][0.3] > 0.9  # drops only after p > 0.3
    assert by_budget["budget=1000"][0.25] > 0.9  # good to p ~ 0.26
    assert by_budget["budget=100"][0.1] > 0.9  # acceptable to p ~ 0.14
    # 5000 nearly coincides with 10000 for moderate p.
    for p in (0.1, 0.2, 0.25):
        assert abs(by_budget["budget=5000"][p] - by_budget["budget=10000"][p]) < 0.03
    record_bench(
        "fig8",
        benchmark,
        trials=report.trials_run,
        budgets=[100, 1000, 5000, 10000],
    )
