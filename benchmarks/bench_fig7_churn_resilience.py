"""Figure 7 — churn resilience for α = T / t_life in {1, 2, 3, 5}.

One benchmark per α panel of the registered ``fig7`` scenario; each prints
R vs p for the four schemes (central / disjoint / joint / share) under the
epoch churn model.
"""

import pytest
from conftest import bench_sweep, bench_trials, curves, record_bench, run_once

from repro.experiments.reporting import format_sweep_table

BENCH = "fig7"
PANELS = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0}


@pytest.mark.parametrize("label", list(PANELS))
def test_fig7_panel(benchmark, label):
    alpha = PANELS[label]
    report = run_once(
        benchmark,
        bench_sweep,
        "fig7",
        trials=bench_trials(),
        axes={"alpha": (alpha,)},
    )
    print()
    print(
        format_sweep_table(
            f"Fig 7({label}): churn resilience R vs p (alpha={alpha:g})",
            report.spec.axis_names,
            list(report.records),
        )
    )
    series = curves(report)
    share = series[f"alpha={alpha} scheme=share"]
    central = series[f"alpha={alpha} scheme=central"]
    # Paper claims: the share scheme keeps nearly unchanged high
    # resilience for p < 0.3 at every alpha; central is the baseline.
    for p in (0.05, 0.15, 0.25):
        assert share[p] > 0.9
        assert central[p] <= share[p] + 0.02
    record_bench(BENCH, benchmark, trials=report.trials_run, alpha=alpha)


def test_fig7_share_flatness_across_alphas(benchmark):
    """Cross-panel claim: α barely moves the share scheme below p = 0.3."""
    report = run_once(
        benchmark,
        bench_sweep,
        "fig7",
        trials=bench_trials(),
        axes={"alpha": (1.0, 5.0), "p": (0.1, 0.2, 0.25), "scheme": ("share",)},
    )
    series = curves(report)
    calm = series["alpha=1.0 scheme=share"]
    harsh = series["alpha=5.0 scheme=share"]
    print()
    print("share scheme, alpha=1 vs alpha=5:")
    for p in (0.1, 0.2, 0.25):
        print(f"  p={p:.2f}: {calm[p]:.4f} vs {harsh[p]:.4f}")
        assert abs(calm[p] - harsh[p]) < 0.05
    record_bench(BENCH, benchmark, trials=report.trials_run)
