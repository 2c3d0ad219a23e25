"""The paper's qualitative claims, asserted on reduced ``figN`` scenarios.

Each class shrinks a registered figure scenario (fewer axis values, fewer
trials) and runs it through ``api.run_scenario`` — the path the store, CI
and the perf ledger exercise — then reads the curves off ``sweep_series``;
``TestFig6Exact`` instead runs the Fig. 6 family at ten times its trials.
"""

import dataclasses

import pytest

import fig6_exact
from repro import api
from repro.experiments.reporting import sweep_series
from repro.scenarios.spec import Axis

SCHEMES = ("central", "disjoint", "joint")
CHURN_SCHEMES = SCHEMES + ("share",)


def run_reduced(name, axes, trials=None, **fixed):
    spec = api.get_scenario(name)
    spec = dataclasses.replace(
        spec,
        axes=tuple(Axis(axis, values) for axis, values in axes),
        fixed={**spec.fixed, **fixed},
    )
    return api.run_scenario(spec, trials=trials)


def curves(report, value_key="value"):
    """``{series name: {x: value}}`` for a report's records."""
    x_values, series = sweep_series(
        report.spec.axis_names, list(report.records), value_key=value_key
    )
    return {name: dict(zip(x_values, column)) for name, column in series.items()}


class TestFig6Analytic:
    """Fast analytic-only checks (fig6b/fig6d: ``measure=False``, zero
    trials) at N = 10,000 and N = 100."""

    P_SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

    @pytest.fixture(scope="class")
    def report(self):
        return run_reduced(
            "fig6b", (("scheme", SCHEMES), ("p", self.P_SWEEP))
        )

    @pytest.fixture(scope="class")
    def small(self):
        return run_reduced(
            "fig6d", (("scheme", SCHEMES), ("p", self.P_SWEEP))
        )

    def test_all_schemes_swept(self, report):
        costs = curves(report, "cost")
        assert set(costs) == {f"scheme={scheme}" for scheme in SCHEMES}
        assert all(len(curve) == 6 for curve in costs.values())
        assert report.trials_run == 0
        assert all(result["measured"] is None for result in report.results())

    def test_scheme_ordering(self, report):
        worst = curves(report, "analytic_worst")
        for p in self.P_SWEEP:
            assert worst["scheme=joint"][p] >= worst["scheme=disjoint"][p] - 1e-9
            assert worst["scheme=disjoint"][p] >= worst["scheme=central"][p] - 1e-9

    def test_costs_within_budget(self, report):
        for result in report.results():
            assert result["cost"] <= 10000

    def test_joint_cost_growth(self, report):
        joint_costs = curves(report, "cost")["scheme=joint"]
        assert joint_costs[0.1] < 100
        assert joint_costs[0.3] > 3000

    def test_small_network_keeps_joint_ahead(self, small):
        """Fig. 6(c)/(d): the DHT's size barely moves resilience — the
        joint scheme still dominates — while costs clamp at N = 100."""
        worst = curves(small, "analytic_worst")
        joint, central = worst["scheme=joint"], worst["scheme=central"]
        for p in (0.1, 0.2, 0.3):
            assert joint[p] > central[p]
        assert joint[0.2] >= 0.95
        assert small.trials_run == 0
        assert all(cost <= 100 for cost in curves(small, "cost")["scheme=joint"].values())


class TestFig6Measured:
    def test_monte_carlo_confirms_analytics(self):
        report = run_reduced(
            "fig6a",
            (("scheme", SCHEMES), ("p", (0.1, 0.3))),
            trials=300,
            population_size=2000,
        )
        rows = list(fig6_exact.channels(report))
        assert len(rows) == 12
        for point, channel, estimate, exact, _ in rows:
            assert fig6_exact.bracketed(estimate, exact), (point, channel)


class TestFig6Exact:
    """Every Fig. 6-family sweep at 10x its registry trials: each measured
    channel holds the exact finite-N value at z = 3.29, while Eqs. 1-3,
    the N -> infinity limit, miss some at N = 100."""

    SWEEPS = ("fig6a", "fig6c", "scheme-matrix-n1000", "sensitivity-grid")

    @pytest.fixture(scope="class")
    def rows(self):
        rows = {}
        for name in self.SWEEPS:
            trials = 10 * api.get_scenario(name).trials
            report = api.run_scenario(name, trials=trials)
            rows[name] = list(fig6_exact.channels(report))
        return rows

    @pytest.mark.parametrize("name", SWEEPS)
    def test_every_channel_holds_the_exact_value(self, rows, name):
        outside = [
            (point, channel)
            for point, channel, estimate, exact, _ in rows[name]
            if not fig6_exact.bracketed(estimate, exact)
        ]
        assert len(rows[name]) == (64 if name == "sensitivity-grid" else 66)
        assert outside == []

    def test_eqs_1_to_3_miss_the_small_network(self, rows):
        missed = [
            (point, channel)
            for point, channel, estimate, _, analytic in rows["fig6c"]
            if not fig6_exact.bracketed(estimate, analytic)
        ]
        assert missed


class TestFig7:
    """All four α panels, on the churn model's exact values: the bounds are
    the paper's shape, not room for Monte-Carlo noise."""

    ALPHAS = (1.0, 2.0, 3.0, 5.0)

    @pytest.fixture(scope="class")
    def panels(self):
        report = run_reduced(
            "fig7",
            (
                ("alpha", self.ALPHAS),
                ("p", (0.0, 0.1, 0.2, 0.3)),
                ("scheme", CHURN_SCHEMES),
            ),
            trials=600,
        )
        return curves(report)

    def test_panel_extraction(self, panels):
        assert set(panels) == {
            f"alpha={alpha} scheme={scheme}"
            for alpha in self.ALPHAS
            for scheme in CHURN_SCHEMES
        }

    def test_share_scheme_flat_under_churn(self, panels):
        for alpha in self.ALPHAS:
            share = panels[f"alpha={alpha} scheme=share"]
            for p in (0.0, 0.1, 0.2):
                assert share[p] > 0.9, f"share at p={p}, alpha={alpha}"
        calm, harsh = panels["alpha=1.0 scheme=share"], panels["alpha=5.0 scheme=share"]
        for p in (0.0, 0.1, 0.2):
            assert abs(calm[p] - harsh[p]) < 1e-6, f"share moved with alpha at p={p}"

    def test_multipath_schemes_decay_with_alpha(self, panels):
        joint_1 = panels["alpha=1.0 scheme=joint"]
        joint_5 = panels["alpha=5.0 scheme=joint"]
        assert joint_5[0.1] < joint_1[0.1] - 0.1

    def test_central_is_baseline(self, panels):
        for alpha in self.ALPHAS:
            central = panels[f"alpha={alpha} scheme=central"]
            share = panels[f"alpha={alpha} scheme=share"]
            for p in (0.1, 0.2, 0.3):
                assert central[p] < share[p]


class TestFig8:
    @pytest.fixture(scope="class")
    def report(self):
        return run_reduced(
            "fig8",
            (
                ("budget", (100, 1000, 5000, 10000)),
                ("p", (0.1, 0.14, 0.26, 0.3, 0.45)),
            ),
            trials=600,
        )

    def test_paper_claims(self, report):
        series = curves(report)
        assert series["budget=100"][0.14] > 0.9
        assert series["budget=1000"][0.26] > 0.9
        assert series["budget=10000"][0.3] > 0.9
        assert series["budget=10000"][0.45] < 0.2
        # 5,000 nodes nearly coincide with 10,000 for moderate p.
        for p in (0.1, 0.14, 0.26, 0.3):
            assert abs(series["budget=5000"][p] - series["budget=10000"][p]) < 0.03

    def test_bigger_budget_never_much_worse(self, report):
        series = curves(report)
        for p in (0.1, 0.14, 0.26, 0.3):
            assert series["budget=10000"][p] >= series["budget=100"][p] - 0.05

    def test_measured_matches_algorithm1(self, report):
        """The churn model at the plan's own rate is Algorithm 1's own
        aggregation: the two agree bit for bit, and no trial runs."""
        for result in report.results():
            assert result["value"] == result["analytic_resilience"]
            assert result["trials_run"] == 0
        assert report.trials_run == 0
