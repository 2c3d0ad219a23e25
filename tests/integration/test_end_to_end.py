"""Whole-system integration: sender -> cloud + DHT -> receiver, with live
churn, multiple concurrent key instances, and adversaries, all on one
event loop."""

import pytest

from repro.adversary.population import SybilPopulation
from repro.churn.distributions import ParetoLifetime, WeibullLifetime
from repro.churn.lifetime import ExponentialLifetime
from repro.churn.process import ChurnProcess
from repro.cloud.storage import CloudStore
from repro.core.protocol import (
    ATTACK_RELEASE_AHEAD,
    ProtocolContext,
    attempt_early_release,
    install_holders,
)
from repro.core.receiver import DataReceiver
from repro.core.schemes import NodeJointScheme
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline
from repro.dht.bootstrap import build_network
from repro.util.rng import RandomSource


def build_world(size=150, seed=211, malicious_rate=0.0, attack="none", resolve=False):
    overlay = build_network(size, seed=seed)
    population = SybilPopulation(malicious_rate, RandomSource(seed + 1, "sybil"))
    if malicious_rate:
        population.mark_population(overlay.node_ids)
    context = ProtocolContext(
        network=overlay.network,
        population=population,
        attack_mode=attack,
        resolve_targets=resolve,
    )
    install_holders(overlay, context)
    alice_node = overlay.nodes[overlay.node_ids[0]]
    bob_node = overlay.nodes[overlay.node_ids[1]]
    population.force_honest([alice_node.node_id, bob_node.node_id])
    cloud = CloudStore(overlay.loop.clock)
    alice = DataSender(alice_node, cloud, RandomSource(seed + 2, "alice"))
    bob = DataReceiver(bob_node)
    return overlay, context, cloud, alice, bob


class TestMultipleInstances:
    def test_three_concurrent_keys_with_different_release_times(self):
        overlay, _, cloud, alice, bob = build_world()
        sends = []
        for index, (release, length) in enumerate([(100.0, 2), (250.0, 5), (400.0, 4)]):
            timeline = ReleaseTimeline(0.0, release, length)
            message = f"message number {index}".encode()
            result = alice.send_multipath(
                message, timeline, bob.node_id, replication=2, joint=True
            )
            sends.append((message, timeline, result))

        # Check each key emerges in its own window and not before.
        overlay.loop.run(until=99.0)
        assert all(not bob.has_key(r.key_id) for _, _, r in sends)
        overlay.loop.run(until=200.0)
        assert bob.has_key(sends[0][2].key_id)
        assert not bob.has_key(sends[1][2].key_id)
        assert not bob.has_key(sends[2][2].key_id)
        overlay.loop.run()
        for message, _, result in sends:
            assert (
                bob.decrypt_from_cloud(cloud, result.blob.blob_id, result.key_id)
                == message
            )

    def test_mixed_schemes_coexist(self):
        overlay, _, cloud, alice, bob = build_world(resolve=True)
        central = alice.send_centralized(
            b"central message", ReleaseTimeline(0.0, 90.0, 1), bob.node_id
        )
        joint = alice.send_multipath(
            b"joint message",
            ReleaseTimeline(0.0, 150.0, 3),
            bob.node_id,
            replication=2,
            joint=True,
        )
        share = alice.send_key_share(
            b"share message",
            ReleaseTimeline(0.0, 200.0, 4),
            bob.node_id,
            share_rows=4,
            secret_rows=2,
            thresholds=[1, 2, 2, 2],
        )
        overlay.loop.run()
        for result, message in [
            (central, b"central message"),
            (joint, b"joint message"),
            (share, b"share message"),
        ]:
            assert (
                bob.decrypt_from_cloud(cloud, result.blob.blob_id, result.key_id)
                == message
            )


class TestWithLiveChurn:
    def test_joint_scheme_under_gentle_churn(self):
        """With mean lifetime 10x the emerging period, most runs deliver."""
        overlay, _, cloud, alice, bob = build_world(seed=231)
        churn = ChurnProcess(
            overlay.network,
            ExponentialLifetime(3000.0),  # T = 300 -> alpha = 0.1
            RandomSource(232, "churn"),
        )
        churn.start()
        timeline = ReleaseTimeline(0.0, 300.0, 3)
        result = alice.send_multipath(
            b"survives gentle churn",
            timeline,
            bob.node_id,
            replication=3,
            joint=True,
        )
        overlay.loop.run(until=320.0)
        assert churn.deaths > 0  # churn actually happened
        assert bob.has_key(result.key_id)

    def test_share_scheme_under_harsh_churn_beats_multipath(self):
        """Qualitative §III-D: with T comparable to node lifetimes, the
        key-share scheme delivers in runs where the multipath scheme
        (concrete pre-assigned holders) fails."""
        share_delivered = 0
        joint_delivered = 0
        attempts = 10
        for index in range(attempts):
            seed = 900 + index * 7
            # Joint run.
            overlay, _, _, alice, bob = build_world(seed=seed)
            churn = ChurnProcess(
                overlay.network,
                ExponentialLifetime(400.0),  # alpha ~ 0.75
                RandomSource(seed + 3, "churn"),
            )
            churn.start()
            timeline = ReleaseTimeline(0.0, 300.0, 3)
            result = alice.send_multipath(
                b"m", timeline, bob.node_id, replication=2, joint=True
            )
            overlay.loop.run(until=330.0)
            joint_delivered += bob.has_key(result.key_id)

            # Share run on an identical fresh world.
            overlay, _, _, alice, bob = build_world(seed=seed, resolve=True)
            churn = ChurnProcess(
                overlay.network,
                ExponentialLifetime(400.0),
                RandomSource(seed + 3, "churn"),
            )
            churn.start()
            result = alice.send_key_share(
                b"m",
                timeline,
                bob.node_id,
                share_rows=8,
                secret_rows=4,
                thresholds=[1, 2, 2],
            )
            overlay.loop.run(until=330.0)
            share_delivered += bob.has_key(result.key_id)
        assert share_delivered >= joint_delivered

    def test_heavy_tails_deliver_no_better_than_exponential(self):
        """Same mean lifetime, three tails, every node born at t = 0: the
        heavy tails' infant mortality front-loads deaths, so Algorithm 1's
        exponential assumption may only flatter them, never the reverse."""
        delivered = {}
        for name, model in (
            ("exponential", ExponentialLifetime(600.0)),
            ("weibull", WeibullLifetime(600.0, shape=0.6)),
            ("pareto", ParetoLifetime(600.0, tail_index=1.8)),
        ):
            delivered[name] = 0
            for index in range(5):
                seed = 700 + index * 11
                overlay, _, _, alice, bob = build_world(size=120, seed=seed, resolve=True)
                ChurnProcess(overlay.network, model, RandomSource(seed + 1, "churn")).start()
                result = alice.send_key_share(
                    b"m",
                    ReleaseTimeline(0.0, 300.0, 3),  # alpha = 0.5
                    bob.node_id,
                    share_rows=6,
                    secret_rows=3,
                    thresholds=[1, 3, 3],
                )
                overlay.loop.run(until=330.0)
                delivered[name] += bob.has_key(result.key_id)
        assert delivered["exponential"] >= 3
        assert delivered["weibull"] <= delivered["exponential"] + 1
        assert delivered["pareto"] <= delivered["exponential"] + 1


class TestDeterminism:
    def _run_once(self):
        overlay, context, _, alice, bob = build_world(
            seed=261, malicious_rate=0.25, attack=ATTACK_RELEASE_AHEAD
        )
        timeline = ReleaseTimeline(0.0, 300.0, 3)
        result = alice.send_multipath(
            b"replay me", timeline, bob.node_id, replication=2, joint=True
        )
        overlay.loop.run()
        early = attempt_early_release(context.pool, 3)
        return (
            bob.has_key(result.key_id),
            bob.release_time_of(result.key_id),
            context.pool.observation_count,
            early,
        )

    def test_identical_replays(self):
        assert self._run_once() == self._run_once()


class TestTheoryAgreement:
    def test_release_ahead_success_matches_structural_predicate(self):
        """For each sampled world the live attack outcome must equal the
        static rule of Eq. 1 (the scheme's ``evaluate_attacks``) — the
        protocol implements the theory."""
        agreements = 0
        runs = 8
        for index in range(runs):
            overlay, context, _, alice, bob = build_world(
                seed=300 + index, malicious_rate=0.35, attack=ATTACK_RELEASE_AHEAD
            )
            timeline = ReleaseTimeline(0.0, 300.0, 3)
            result = alice.send_multipath(
                b"x", timeline, bob.node_id, replication=2, joint=True
            )
            predicted = not NodeJointScheme(2, 3).evaluate_attacks(
                result.structure, context.population
            ).release_resisted
            overlay.loop.run(until=10.0)
            actual = (
                attempt_early_release(context.pool, 3)
                == result.secret_key.material
            )
            agreements += predicted == actual
        assert agreements == runs
