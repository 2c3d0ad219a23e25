"""Kernel dispatch through the runners, registry and CLI.

The epoch lane must be reachable from every layer above it — and must be
*invisible* to every pre-existing cache key: default-kernel payloads keep
their exact historical shape, and only specs that pin ``kernel="epoch"``
produce the extended payload.
"""

import pytest

from repro.experiments.engine import TrialEngine
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runners import KERNEL_LANES, get_runner

ENGINE = TrialEngine()


class TestAvailabilityDispatch:
    def run(self, scheme, p, trials, seed=2017, **extra):
        return get_runner("availability")(
            {"scheme": scheme, "uptime": 0.9, "p": p, **extra}, trials, seed, ENGINE
        )

    def test_kernel_lanes(self):
        assert KERNEL_LANES["availability"] == ("static", "epoch")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown availability kernel"):
            self.run("joint", 0.1, 10, kernel="warp")

    def test_epoch_lane_produces_points(self):
        record = self.run(
            "joint", 0.2, 40, seed=11, population_size=500, kernel="epoch"
        )
        assert record["scheme"] == "joint"
        assert 0.0 <= record["release_resilience"] <= 1.0
        assert 0.0 <= record["drop_resilience"] <= 1.0
        assert record["trials_run"] == 40

    def test_share_scheme_has_no_epoch_lane(self):
        with pytest.raises(ValueError, match="multipath"):
            self.run("share", 0.1, 10, kernel="epoch")


class TestTimelinessDispatch:
    def test_kernel_lanes(self):
        assert KERNEL_LANES["timeliness"] == ("event", "epoch")
        assert sorted(KERNEL_LANES) == ["availability", "timeliness"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown timeliness kernel"):
            get_runner("timeliness")(
                {"scheme": "joint", "kernel": "warp"}, 5, 31337, ENGINE
            )

    def test_epoch_lane_produces_results(self):
        record = get_runner("timeliness")(
            {
                "scheme": "disjoint",
                "max_latency": 0.0,
                "path_length": 3,
                "kernel": "epoch",
                "uptime": 0.95,
                "alpha": 1.0,
                "population_size": 500,
                "retry_epochs": 4,
            },
            40,
            5,
            ENGINE,
        )
        assert record["runs"] == 40
        assert 0 <= record["delivered"] <= 40
        assert record["early_releases"] == 0
        assert record["mean_lateness"] >= 0.0
        assert record["worst_lateness"] <= 4


class TestRunnerPayloads:
    def run_availability(self, **extra):
        return get_runner("availability")(
            {"scheme": "joint", "uptime": 0.9, "p": 0.2, **extra},
            trials=30,
            seed=3,
            engine=ENGINE,
        )

    def test_default_payload_shape_is_unchanged(self):
        # Cache-key discipline: a spec that never mentions a kernel must
        # produce the exact pre-epoch payload fields.
        payload = self.run_availability()
        assert sorted(payload) == [
            "drop_resilience",
            "p",
            "release_resilience",
            "scheme",
            "trials_run",
            "uptime",
            "value",
        ]

    def test_epoch_payload_records_the_lane(self):
        payload = self.run_availability(kernel="epoch", population_size=500)
        assert payload["kernel"] == "epoch"
        assert payload["alpha"] == 2.0
        assert payload["lifetime"] == "exponential"
        assert payload["population_size"] == 500
        assert payload["trials_run"] == 30

    def test_timeliness_default_payload_shape_is_unchanged(self):
        payload = get_runner("timeliness")(
            {"scheme": "central", "max_latency": 0.05},
            trials=2,
            seed=9,
            engine=ENGINE,
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

    def test_timeliness_epoch_payload_records_the_lane(self):
        payload = get_runner("timeliness")(
            {
                "scheme": "joint",
                "kernel": "epoch",
                "population_size": 500,
                "retry_epochs": 4,
                "max_latency": 0.0,
            },
            trials=30,
            seed=9,
            engine=ENGINE,
        )
        assert payload["kernel"] == "epoch"
        assert payload["population_size"] == 500
        assert payload["retry_epochs"] == 4
        assert payload["runs"] == 30


class TestRegistrySpecs:
    @pytest.mark.parametrize(
        "name",
        ["availability-1e6", "timeliness-1e6", "epoch-churn-grid", "epoch-smoke"],
    )
    def test_epoch_scenarios_registered(self, name):
        assert name in scenario_names()
        spec = get_scenario(name)
        assert spec.fixed["kernel"] == "epoch"
        assert spec.points()  # axes expand to a non-empty grid

    def test_million_node_specs_pin_the_population(self):
        for name in ("availability-1e6", "timeliness-1e6"):
            assert get_scenario(name).fixed["population_size"] == 1_000_000

    def test_epoch_smoke_is_small_enough_for_ci(self):
        spec = get_scenario("epoch-smoke")
        assert spec.trials <= 200
        assert spec.fixed["population_size"] <= 100_000
        assert len(spec.points()) == 1

    def test_legacy_specs_stay_kernel_free(self):
        # The historical availability sweep must not grow a kernel pin —
        # that would rewrite its cache keys.
        spec = get_scenario("availability")
        assert "kernel" not in spec.fixed
        for point in spec.points():
            assert "kernel" not in point.params(spec)


class TestCliKernelOverride:
    def test_kernel_flag_pins_the_lane(self):
        # --kernel lands in spec.fixed exactly like a spec-pinned kernel
        # (and therefore in cache keys).
        spec = get_scenario("availability")
        pinned = spec.with_kernel("epoch")
        assert pinned.fixed["kernel"] == "epoch"
        for point in pinned.points():
            assert point.params(pinned)["kernel"] == "epoch"
        assert spec.with_kernel(None) is spec

    @pytest.mark.parametrize(
        "name, kernel, match",
        [
            ("availability", "warp", "unknown availability kernel 'warp'"),
            ("timeliness", "static", "unknown timeliness kernel 'static'"),
            ("smoke", "epoch", "kind 'attack_resilience' has no kernel lanes"),
        ],
    )
    def test_a_lane_the_kind_lacks_is_refused(self, name, kernel, match):
        with pytest.raises(ValueError, match=match):
            get_scenario(name).with_kernel(kernel)

    def test_cli_exposes_the_flag(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["sweep", "run", "epoch-smoke", "--kernel", "epoch"]
        )
        assert args.kernel == "epoch"
        args = parser.parse_args(["sweep", "run", "epoch-smoke"])
        assert args.kernel is None

    @pytest.mark.parametrize(
        "name, kernel", [("smoke", "epoch"), ("epoch-smoke", "warp")]
    )
    def test_sweep_refuses_a_lane_before_any_state_exists(
        self, tmp_path, capsys, name, kernel
    ):
        from repro.cli import main

        store = tmp_path / "store"
        code = main(
            ["sweep", "run", name, "--kernel", kernel, "--store", str(store)]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert len(out) == 1 and "kernel" in out[0], out
        assert not store.exists()  # no journal, no claim, no record
