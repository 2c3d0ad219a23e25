"""Latency models, and the overlay's timeline on the virtual clock."""

import pytest

from repro.cloud import CloudStore
from repro.core import DataReceiver, DataSender, ReleaseTimeline
from repro.core.protocol import ProtocolContext, install_holders
from repro.dht import build_network
from repro.dht.rpc import Ping
from repro.obs.sink import ListSink
from repro.obs.trace import NULL_TRACER
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.util.rng import RandomSource


class TestConstantLatency:
    def test_fixed_delay(self):
        model = ConstantLatency(0.25)
        assert model.delay(1, 2) == 0.25
        assert model.delay(99, 100) == 0.25

    def test_zero_allowed(self):
        assert ConstantLatency(0.0).delay(1, 2) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(0.1, 0.5, rng=RandomSource(1))
        for _ in range(200):
            delay = model.delay(1, 2)
            assert 0.1 <= delay <= 0.5

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_deterministic_with_seed(self):
        a = UniformLatency(0.0, 1.0, rng=RandomSource(7))
        b = UniformLatency(0.0, 1.0, rng=RandomSource(7))
        assert [a.delay(0, 0) for _ in range(5)] == [b.delay(0, 0) for _ in range(5)]


class TestOverlayTrace:
    """``build_network(trace=sink)``: ``obs.trace`` events at virtual times."""

    def test_record_and_filter(self):
        sink = ListSink()
        overlay = build_network(8, seed=3, trace=sink)
        first, second, third = overlay.node_ids[:3]
        overlay.network.rpc(Ping(sender=first), second)
        overlay.network.kill(third)
        overlay.network.rpc(Ping(sender=second), first)
        assert [record["name"] for record in sink.records] == ["rpc", "churn", "rpc"]
        assert [
            record["attrs"]["message"]
            for record in sink.records
            if record["name"] == "rpc"
        ] == [f"Ping {first} -> {second}", f"Ping {second} -> {first}"]

    def test_default_overlay_records_nothing(self):
        overlay = build_network(8, seed=3)
        assert overlay.network.tracer is NULL_TRACER
        overlay.network.kill(overlay.node_ids[0])
        assert not overlay.network.is_online(overlay.node_ids[0])

    def test_events_carry_virtual_time(self):
        sink = ListSink()
        overlay = build_network(8, seed=3, trace=sink)
        victim = overlay.node_ids[0]
        overlay.loop.call_at(1.5, lambda: overlay.network.kill(victim))
        overlay.loop.run()
        (event,) = sink.records
        assert (event["type"], event["name"], event["t"]) == ("event", "churn", 1.5)
        assert event["attrs"] == {"message": f"node {victim} died"}

    def test_details_stored(self):
        sink = ListSink()
        overlay = build_network(40, seed=3, trace=sink)
        install_holders(overlay, ProtocolContext(network=overlay.network))
        alice = DataSender(
            overlay.nodes[overlay.node_ids[0]],
            CloudStore(overlay.loop.clock),
            RandomSource(4, "alice"),
        )
        bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
        timeline = ReleaseTimeline(0.0, 200.0, 2)
        alice.send_multipath(b"m", timeline, bob.node_id, replication=2, joint=False)
        overlay.loop.run()
        peels = [r for r in sink.records if r["name"] == "holder"]
        assert [r["attrs"]["column"] for r in peels] == [1, 1, 2, 2]
        assert all(
            f"peeled column {r['attrs']['column']}" in r["attrs"]["message"]
            for r in peels
        )
        # Column 2 peels one holding period (100 s) after column 1.
        assert peels[2]["t"] - peels[0]["t"] == pytest.approx(100.0)
