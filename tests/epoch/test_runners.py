"""One model per kind: the two closed-form/event kinds and their epoch twins.

``availability`` is the closed form, ``epoch_availability`` the epoch
simulator; ``timeliness`` runs the event-loop protocol, ``epoch_timeliness``
counts holding epochs under churn.  Each kind's ``_take`` table lists only
what its model reads, so a parameter the model would ignore is refused
rather than landing, unread, in a cache key.
"""

import pytest

from repro.experiments.engine import TrialEngine
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runners import get_runner

ENGINE = TrialEngine()
AVAILABILITY = {"scheme": "joint", "uptime": 0.9, "p": 0.2}


def run(kind, params, trials=30, seed=3):
    return get_runner(kind)(params, trials, seed, ENGINE)


def refuses(kind, params, name):
    with pytest.raises(ValueError, match=rf"does not accept parameter\(s\) \['{name}'\]"):
        run(kind, params)


class TestAvailability:
    def test_payload_is_the_closed_form_record(self):
        payload = run("availability", AVAILABILITY)
        assert sorted(payload) == [
            "drop_resilience",
            "p",
            "release_resilience",
            "scheme",
            "trials_run",
            "uptime",
            "value",
        ]
        assert payload["trials_run"] == 0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("alpha", 9.0),
            ("lifetime", "pareto"),
            ("lifetime_shape", 1.5),
            ("kernel", "epoch"),
        ],
    )
    def test_refuses_what_the_closed_form_does_not_read(self, name, value):
        refuses("availability", {**AVAILABILITY, name: value}, name)


class TestEpochAvailability:
    def test_measures_a_point(self):
        payload = run(
            "epoch_availability",
            {**AVAILABILITY, "population_size": 500},
            trials=40,
            seed=11,
        )
        assert list(payload) == [
            "scheme",
            "uptime",
            "p",
            "release_resilience",
            "drop_resilience",
            "value",
            "trials_run",
            "alpha",
            "lifetime",
            "population_size",
        ]
        assert payload["alpha"] == 2.0
        assert payload["lifetime"] == "exponential"
        assert payload["population_size"] == 500
        assert payload["trials_run"] == 40
        assert 0.0 <= payload["release_resilience"] <= 1.0
        assert 0.0 <= payload["drop_resilience"] <= 1.0

    def test_lifetime_params_reach_the_model(self):
        # The closed form refuses alpha and lifetime; the simulator reads
        # them, so heavier churn must move the measured point.
        base = {**AVAILABILITY, "population_size": 500}
        calm = run("epoch_availability", {**base, "alpha": 0.5}, trials=200)
        heavy = run(
            "epoch_availability",
            {**base, "alpha": 9.0, "lifetime": "pareto"},
            trials=200,
        )
        assert heavy["drop_resilience"] < calm["drop_resilience"]

    def test_share_scheme_is_refused(self):
        with pytest.raises(ValueError, match="multipath"):
            run("epoch_availability", {**AVAILABILITY, "scheme": "share"}, 10)

    @pytest.mark.parametrize(
        "name, value", [("kernel", "epoch"), ("max_latency", 0.0)]
    )
    def test_refuses_what_the_simulator_does_not_read(self, name, value):
        refuses("epoch_availability", {**AVAILABILITY, name: value}, name)


class TestTimeliness:
    def test_payload_is_the_event_loop_record(self):
        payload = run(
            "timeliness", {"scheme": "central", "max_latency": 0.05}, 2, 9
        )
        assert sorted(payload) == [
            "delivered",
            "delivery_rate",
            "early_releases",
            "max_latency",
            "mean_lateness",
            "runs",
            "scheme",
            "trials_run",
            "value",
            "worst_lateness",
        ]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("p", 0.1),
            ("uptime", 0.9),
            ("alpha", 2.0),
            ("population_size", 1000),
            ("replication", 3),
            ("retry_epochs", 8),
            ("lifetime", "weibull"),
            ("lifetime_shape", 1.5),
            ("kernel", "epoch"),
        ],
    )
    def test_refuses_the_churn_params(self, name, value):
        refuses("timeliness", {"scheme": "joint", name: value}, name)


class TestEpochTimeliness:
    def test_measures_a_point(self):
        payload = run(
            "epoch_timeliness",
            {
                "path_length": 3,
                "uptime": 0.95,
                "alpha": 1.0,
                "population_size": 500,
                "retry_epochs": 4,
            },
            trials=40,
            seed=5,
        )
        assert list(payload) == [
            "scheme",
            "delivered",
            "runs",
            "delivery_rate",
            "mean_lateness",
            "worst_lateness",
            "value",
            "trials_run",
            "uptime",
            "alpha",
            "p",
            "population_size",
            "retry_epochs",
        ]
        assert payload["scheme"] == "joint"  # the forwarding rule it measures
        assert payload["runs"] == payload["trials_run"] == 40
        assert 0 <= payload["delivered"] <= 40
        assert payload["mean_lateness"] >= 0.0
        assert payload["worst_lateness"] <= 4

    @pytest.mark.parametrize(
        "name, value",
        [("scheme", "joint"), ("max_latency", 0.0), ("kernel", "epoch")],
    )
    def test_refuses_what_the_walk_does_not_read(self, name, value):
        refuses("epoch_timeliness", {name: value}, name)


class TestLifetimeShape:
    """``lifetime_shape`` is Weibull's shape or Pareto's tail index; the
    exponential and fixed models have none, so a shape for them is refused
    instead of yielding the plain record under another cache key."""

    POINTS = {
        "epoch_availability": {**AVAILABILITY, "population_size": 500},
        "epoch_timeliness": {
            "path_length": 3,
            "uptime": 0.95,
            "population_size": 500,
            "retry_epochs": 2,
        },
    }

    @pytest.mark.parametrize("kind", sorted(POINTS))
    @pytest.mark.parametrize("lifetime", ["exponential", "fixed"])
    def test_a_shapeless_model_refuses_a_shape(self, kind, lifetime):
        params = {**self.POINTS[kind], "lifetime": lifetime, "lifetime_shape": 5.0}
        with pytest.raises(ValueError, match="lifetime_shape"):
            run(kind, params, trials=10)

    @pytest.mark.parametrize("kind", sorted(POINTS))
    def test_a_shaped_model_reads_it(self, kind):
        params = {**self.POINTS[kind], "lifetime": "weibull", "lifetime_shape": 5.0}
        assert run(kind, params, trials=10)["trials_run"] == 10


class TestRegistrySpecs:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("availability-1e6", "epoch_availability"),
            ("epoch-churn-grid", "epoch_availability"),
            ("epoch-smoke", "epoch_availability"),
            ("timeliness-1e6", "epoch_timeliness"),
            ("availability", "availability"),
            ("timeliness", "timeliness"),
        ],
    )
    def test_each_scenario_names_its_model_as_its_kind(self, name, kind):
        assert name in scenario_names()
        spec = get_scenario(name)
        assert spec.kind == kind
        assert spec.points()
        for point in spec.points():
            assert "kernel" not in point.params(spec)

    def test_million_node_specs_pin_the_population(self):
        for name in ("availability-1e6", "timeliness-1e6"):
            assert get_scenario(name).fixed["population_size"] == 1_000_000

    def test_timeliness_1e6_sweeps_p_only(self):
        spec = get_scenario("timeliness-1e6")
        assert [axis.name for axis in spec.axes] == ["p"]
        assert len(spec.points()) == 3

    def test_epoch_smoke_is_small_enough_for_ci(self):
        spec = get_scenario("epoch-smoke")
        assert spec.trials <= 200
        assert spec.fixed["population_size"] <= 100_000
        assert len(spec.points()) == 1
