"""The sweep orchestrator: caching, resume, pooling, tolerance schedules,
and what it hands the scenario kinds."""

import dataclasses

import pytest

from repro.experiments.engine import TrialEngine
from repro.experiments.executors import pools_constructed
from repro.api import run_sweep
from repro.scenarios.orchestrator import SweepOrchestrator
from repro.scenarios.runners import _RUNNERS, get_runner, register_kind
from repro.scenarios.spec import Axis, ScenarioSpec, ToleranceRule, ToleranceSchedule
from repro.scenarios.store import ResultStore
from trial_units import BernoulliTrial


@pytest.fixture
def counting_kind():
    """A cheap registered kind that counts its runner invocations."""
    calls = []

    @register_kind("unit-test-kind")
    def run_point(params, trials, seed, engine, batch_size=None):
        calls.append(dict(params))
        estimate = engine.estimate(
            BernoulliTrial(params["p"]),  # a unit: some sweeps run jobs > 1
            trials=trials,
            seed=seed,
            label=f"unit-{params['p']}",
        )
        return {
            "p": params["p"],
            "value": estimate.estimate,
            "successes": estimate.successes,
            "trials_run": estimate.trials,
            "engine_tolerance": engine.tolerance,
        }

    try:
        yield calls
    finally:
        _RUNNERS.pop("unit-test-kind", None)


def counting_spec(points=4, trials=60, **overrides) -> ScenarioSpec:
    values = tuple(round(0.1 + 0.2 * i, 2) for i in range(points))
    base = dict(
        name="unit-sweep",
        kind="unit-test-kind",
        axes=(Axis("p", values),),
        trials=trials,
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestCachingAndResume:
    def test_rerun_of_completed_sweep_computes_nothing(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec()
        cold = run_sweep(spec, store=store)
        assert (cold.computed, cold.cached) == (4, 0)
        assert len(counting_kind) == 4
        warm = run_sweep(spec, store=store)
        assert (warm.computed, warm.cached) == (0, 4)
        assert warm.trials_run == 0
        assert len(counting_kind) == 4  # zero new runner invocations
        assert warm.results() == cold.results()

    def test_interrupted_sweep_resumes_without_recomputing(
        self, counting_kind, tmp_path
    ):
        class DyingStore(ResultStore):
            """Simulates a kill: the process dies saving point 3."""

            def save(self, scenario, key, record):
                if self.count(scenario) >= 2:
                    raise RuntimeError("killed mid-sweep")
                return super().save(scenario, key, record)

        spec = counting_spec()
        with pytest.raises(RuntimeError, match="killed mid-sweep"):
            run_sweep(spec, store=DyingStore(tmp_path))
        assert len(counting_kind) == 3  # two persisted + the dying third

        resumed = run_sweep(spec, store=ResultStore(tmp_path))
        assert (resumed.computed, resumed.cached) == (2, 2)
        # Only the two missing points recomputed.
        assert len(counting_kind) == 5
        assert [record["result"]["p"] for record in resumed.records] == [
            0.1,
            0.3,
            0.5,
            0.7,
        ]
        # And now the sweep is complete: a further run is free.
        final = run_sweep(spec, store=ResultStore(tmp_path))
        assert (final.computed, final.cached) == (0, 4)
        assert len(counting_kind) == 5

    def test_force_recomputes_cached_points(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=2)
        run_sweep(spec, store=store)
        forced = run_sweep(spec, store=store, force=True)
        assert (forced.computed, forced.cached) == (2, 0)
        assert len(counting_kind) == 4

    def test_trials_override_is_a_different_cache_entry(
        self, counting_kind, tmp_path
    ):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=2)
        run_sweep(spec, store=store)
        other = run_sweep(spec, store=store, trials=30)
        assert other.computed == 2
        assert store.count(spec.name) == 4

    def test_storeless_runs_always_compute(self, counting_kind):
        spec = counting_spec(points=2)
        run_sweep(spec)
        run_sweep(spec)
        assert len(counting_kind) == 4

    def test_cached_records_marked(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=2)
        cold = run_sweep(spec, store=store)
        assert not any(record.get("from_cache") for record in cold.records)
        warm = run_sweep(spec, store=store)
        assert all(record["from_cache"] for record in warm.records)


class TestSharedPool:
    def test_parallel_sweep_constructs_exactly_one_pool(
        self, counting_kind, tmp_path
    ):
        spec = counting_spec(points=5, trials=40)
        before = pools_constructed()
        report = run_sweep(spec, store=ResultStore(tmp_path), jobs=2)
        assert pools_constructed() - before == 1
        assert report.computed == 5

    def test_serial_sweep_constructs_no_pool(self, counting_kind):
        before = pools_constructed()
        run_sweep(counting_spec(points=3, trials=20), jobs=1)
        assert pools_constructed() == before

    def test_parallel_results_identical_to_serial(self, counting_kind):
        spec = counting_spec(points=3, trials=50)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=3)
        assert serial.results() == parallel.results()


class TestToleranceHooks:
    def test_schedule_applied_with_cli_style_base(self, counting_kind):
        spec = counting_spec(
            points=3,
            trials=400,
            schedule=ToleranceSchedule(
                rules=(ToleranceRule(axis="p", low=0.25, high=0.45, scale=0.5),)
            ),
        )
        # No base tolerance: the schedule stays dormant.
        dormant = run_sweep(spec)
        assert [r["engine_tolerance"] for r in dormant.results()] == [
            None,
            None,
            None,
        ]
        # With a base (the CLI's --tolerance), the knee point tightens.
        active = SweepOrchestrator(tolerance=0.1).run(spec)
        assert [r["engine_tolerance"] for r in active.results()] == pytest.approx(
            [0.1, 0.05, 0.1]
        )

    def test_resolved_tolerance_recorded_and_keyed(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=2, trials=400)
        run_sweep(spec, store=store)
        toleranced = SweepOrchestrator(store=store, tolerance=0.1).run(spec)
        # Different tolerance -> different cache entries, recorded per point.
        assert toleranced.computed == 2
        assert store.count(spec.name) == 4
        assert all(record["tolerance"] == 0.1 for record in toleranced.records)


class TestValidationAndErrors:
    def test_unknown_kind_is_a_clear_error(self):
        spec = ScenarioSpec(name="x", kind="no-such-kind")
        with pytest.raises(ValueError, match="unknown scenario kind"):
            run_sweep(spec)

    def test_unknown_parameter_is_a_clear_error(self, counting_kind):
        # The registered figure kinds validate their parameter sets.
        spec = ScenarioSpec(
            name="x",
            kind="attack_resilience",
            fixed={"scheme": "joint", "p": 0.1, "typo_parameter": 1},
            trials=0,
        )
        with pytest.raises(ValueError, match="typo_parameter"):
            run_sweep(spec)

    def test_wrong_parameter_type_is_a_clear_error(self):
        # e.g. a hand-edited JSON spec quoting a number.
        spec = ScenarioSpec(
            name="x",
            kind="attack_resilience",
            fixed={"scheme": "joint", "p": "0.1"},
            trials=0,
        )
        with pytest.raises(TypeError, match="'p' must be float"):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "kind, fixed, message",
        [
            # A truthy string would *measure* and land in the cache key.
            (
                "attack_resilience",
                {"scheme": "joint", "p": 0.1, "measure": "no"},
                "'attack_resilience' parameter 'measure' must be bool",
            ),
            (
                "attack_resilience",
                {"scheme": "joint", "p": 0.1, "population_size": "10000"},
                "'attack_resilience' parameter 'population_size' must be int",
            ),
            (
                "timeliness",
                {"scheme": "joint", "path_length": 2.5},
                "'timeliness' parameter 'path_length' must be int",
            ),
        ],
        ids=["measure-str", "population_size-str", "path_length-float"],
    )
    def test_wrong_optional_parameter_type_is_a_clear_error(
        self, kind, fixed, message
    ):
        # Optionals are checked against the type of their default, and the
        # error names the spec's parameter — not a callee's argument.
        spec = ScenarioSpec(name="x", kind=kind, fixed=fixed, trials=0)
        with pytest.raises(TypeError, match=message):
            run_sweep(spec)

    def test_none_default_takes_none_or_a_float(self):
        runner = get_runner("epoch_availability")
        point = {
            "scheme": "joint",
            "uptime": 0.9,
            "p": 0.1,
            "population_size": 200,
            "lifetime": "weibull",
        }
        for shape in (None, 1.5, 2):
            runner({**point, "lifetime_shape": shape}, 10, 1, TrialEngine())
        with pytest.raises(TypeError, match="'lifetime_shape' must be float"):
            runner({**point, "lifetime_shape": "1.5"}, 10, 1, TrialEngine())

    def test_int_accepted_where_float_expected(self):
        spec = ScenarioSpec(
            name="x",
            kind="attack_resilience",
            fixed={"scheme": "joint", "p": 0, "measure": False},
            trials=0,
        )
        assert run_sweep(spec).points == 1

    def test_renamed_scenario_reuses_cached_results(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=3)
        run_sweep(spec, store=store)
        assert len(counting_kind) == 3
        renamed = dataclasses.replace(spec, name="renamed-sweep")
        report = run_sweep(renamed, store=store)
        assert (report.computed, report.cached) == (0, 3)
        assert len(counting_kind) == 3  # nothing recomputed

    def test_progress_hook_sees_every_point(self, counting_kind, tmp_path):
        store = ResultStore(tmp_path)
        spec = counting_spec(points=3, trials=20)
        run_sweep(spec, store=store)
        events = []
        SweepOrchestrator(store=store).run(
            spec, progress=lambda point, record, cached: events.append(
                (point.index, cached)
            )
        )
        assert events == [(0, True), (1, True), (2, True)]


def run_kind_directly(spec):
    """Each grid point through its kind's runner, with no orchestrator."""
    runner = get_runner(spec.kind)
    return [
        runner(
            point.params(spec),
            spec.trials,
            spec.seed,
            TrialEngine(),
            spec.engine.batch_size,
        )
        for point in spec.points()
    ]


class TestDriverEquivalence:
    """A scenario record is the kind's runner called directly.

    The orchestrator hands params, trials, seed and batch size to the
    kind unchanged, so a record equals a direct call's for the same seed.
    """

    def test_attack_resilience_scenario_matches_driver(self):
        spec = ScenarioSpec(
            name="fig6-small",
            kind="attack_resilience",
            fixed={"population_size": 500},
            axes=(
                Axis("scheme", ("central", "disjoint", "joint")),
                Axis("p", (0.1, 0.3)),
            ),
            trials=50,
            seed=99,
        )
        results = run_sweep(spec).results()
        assert len(results) == 6
        assert all(record["measured"] is not None for record in results)
        assert results == run_kind_directly(spec)

    def test_churn_scenario_matches_driver_via_registered_spec(self):
        from repro.scenarios.registry import get_scenario

        small = dataclasses.replace(
            get_scenario("fig7"),
            axes=(
                Axis("alpha", (1.0, 3.0)),
                Axis("p", (0.1, 0.3)),
                Axis("scheme", ("central", "disjoint", "joint", "share")),
            ),
            trials=100,
        )
        results = run_sweep(small, jobs=2).results()
        assert len(results) == 16
        assert results == run_kind_directly(small)

    def test_share_cost_scenario_matches_driver(self):
        spec = ScenarioSpec(
            name="fig8-small",
            kind="share_cost",
            fixed={"alpha": 3.0},
            axes=(Axis("budget", (100, 1000)), Axis("p", (0.1, 0.3))),
            trials=120,
            seed=2017,
        )
        assert run_sweep(spec).results() == run_kind_directly(spec)

    def test_availability_scenario_matches_driver(self):
        spec = ScenarioSpec(
            name="availability-small",
            kind="availability",
            fixed={"population_size": 2000},
            axes=(
                Axis("uptime", (0.9,)),
                Axis("p", (0.1, 0.2)),
                Axis("scheme", ("disjoint", "joint", "share")),
            ),
            trials=150,
            seed=2017,
        )
        assert run_sweep(spec).results() == run_kind_directly(spec)

    def test_timeliness_scenario_matches_driver(self):
        spec = ScenarioSpec(
            name="timeliness-small",
            kind="timeliness",
            fixed={"path_length": 3},
            axes=(Axis("scheme", ("central",)), Axis("max_latency", (0.05,))),
            trials=3,
            seed=31337,
        )
        assert run_sweep(spec).results() == run_kind_directly(spec)

    def test_zero_trial_cost_panels_record_analytics(self):
        # Fig. 6(b)/(d) style: measurement-free points run zero trials.
        spec = ScenarioSpec(
            name="fig6b-small",
            kind="attack_resilience",
            fixed={"population_size": 500, "measure": False},
            axes=(Axis("scheme", ("central", "joint")), Axis("p", (0.1, 0.3))),
            trials=0,
            seed=99,
        )
        report = run_sweep(spec)
        assert report.trials_run == 0
        for record in report.results():
            assert record["measured"] is None
            assert record["cost"] >= 1
            assert 0.0 <= record["analytic_worst"] <= 1.0
