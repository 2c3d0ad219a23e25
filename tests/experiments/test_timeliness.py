"""Release timeliness: the key lands at tr plus at most a hop or two."""

import dataclasses

import pytest

from repro import api
from repro.scenarios.spec import Axis


def measure(schemes, max_latencies):
    """The ``timeliness`` scenario on a reduced grid, 4 protocol runs a point."""
    spec = dataclasses.replace(
        api.get_scenario("timeliness"),
        axes=(Axis("scheme", schemes), Axis("max_latency", max_latencies)),
    )
    return api.run_scenario(spec, trials=4).results()


class TestTimeliness:
    @pytest.fixture(scope="class")
    def results(self):
        return measure(("central", "joint", "share"), (0.05,))

    def test_never_early(self, results):
        """The headline security property, measured end to end."""
        for result in results:
            assert result["early_releases"] == 0

    def test_all_delivered_without_adversary(self, results):
        for result in results:
            assert result["delivery_rate"] == 1.0

    def test_lateness_within_hops(self, results):
        # Worst lateness bounded by a few max-latency hops (secret handoff
        # plus possibly a lookup round) — far below a holding period.
        for result in results:
            assert 0.0 <= result["worst_lateness"] < 1.0

    def test_latency_scales_lateness(self):
        results = measure(("joint",), (0.05, 0.5))
        fast = next(r for r in results if r["max_latency"] == 0.05)
        slow = next(r for r in results if r["max_latency"] == 0.5)
        assert slow["mean_lateness"] >= fast["mean_lateness"]
