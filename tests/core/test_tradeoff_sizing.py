"""Trade-off frontier and cost accounting."""

import pytest

from repro.core.analysis import joint_resilience
from repro.core.onion import OnionCore, build_onion
from repro.core.planner import plan_configuration
from repro.core.sizing import (
    SHARE_BYTES,
    centralized_cost,
    key_share_cost,
    multipath_cost,
    onion_size,
)
from repro.core.tradeoff import (
    biased_configuration,
    pareto_frontier,
)
from repro.crypto.shamir import split_secret
from repro.util.rng import RandomSource


class TestParetoFrontier:
    @pytest.fixture(scope="class")
    def frontier(self):
        return pareto_frontier("joint", 0.3, 500)

    def test_sorted_and_antitone(self, frontier):
        """Increasing Rr must trade away Rd along the frontier."""
        releases = [point.release_resilience for point in frontier]
        drops = [point.drop_resilience for point in frontier]
        assert releases == sorted(releases)
        assert drops == sorted(drops, reverse=True)

    def test_no_point_dominated(self, frontier):
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (
                    b.release_resilience >= a.release_resilience + 1e-12
                    and b.drop_resilience >= a.drop_resilience + 1e-12
                )
                assert not dominates

    def test_points_match_closed_form(self, frontier):
        for point in frontier[:10]:
            pair = joint_resilience(0.3, point.replication, point.path_length)
            assert point.release_resilience == pytest.approx(pair.release)
            assert point.drop_resilience == pytest.approx(pair.drop)

    def test_budget_respected(self, frontier):
        assert all(point.cost <= 500 for point in frontier)

    def test_lemma1_gap_positive_below_half(self):
        for p in (0.1, 0.3, 0.45):
            frontier = pareto_frontier("joint", p, 300)
            gap = min(
                point.release_resilience + point.drop_resilience - 1.0
                for point in frontier
            )
            assert gap > 0.0

    @pytest.mark.parametrize("p", [0.3, 0.35, 0.4])
    @pytest.mark.parametrize("scheme", ["disjoint", "joint"])
    def test_planner_choice_is_on_or_under_the_frontier(self, scheme, p):
        """The frontier searches the planner's grid: at N = 10,000 some
        frontier point is at least as good as the plan on both axes."""
        plan = plan_configuration(scheme, p, 10000)
        assert any(
            point.release_resilience >= plan.release_resilience
            and point.drop_resilience >= plan.drop_resilience
            for point in pareto_frontier(scheme, p, 10000)
        )

    def test_disjoint_frontier_also_works(self):
        frontier = pareto_frontier("disjoint", 0.2, 300)
        assert frontier
        assert frontier[-1].release_resilience >= frontier[0].release_resilience


class TestBiasedConfiguration:
    def test_extremes_pull_apart(self):
        embargo = biased_configuration("joint", 0.3, 500, release_weight=1.0)
        escrow = biased_configuration("joint", 0.3, 500, release_weight=0.0)
        assert embargo.release_resilience >= escrow.release_resilience
        assert escrow.drop_resilience >= embargo.drop_resilience

    def test_balanced_beats_coin_flip(self):
        balanced = biased_configuration("joint", 0.25, 500, release_weight=0.5)
        assert min(balanced.release_resilience, balanced.drop_resilience) > 0.5

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            biased_configuration("joint", 0.2, 100, release_weight=1.5)


class TestOnionSizeModel:
    @pytest.mark.parametrize(
        "length,hops,shares", [(1, 0, 0), (2, 1, 0), (3, 4, 0), (4, 5, 5), (2, 3, 3)]
    )
    def test_exactly_matches_built_onions(self, length, hops, shares):
        rng = RandomSource(9)
        keys = [rng.random_bytes(32) for _ in range(length)]
        hop_ids = [[b"\x00" * 20] * hops for _ in range(length - 1)] + [[]]
        forward_shares = None
        if shares:
            split = split_secret(b"\x00" * 32, 2, shares, rng)
            forward_shares = [split] * (length - 1) + [[]]
        blob = build_onion(
            keys,
            hop_ids,
            OnionCore(secret=b"\x00" * 32, receiver_id=b"\x00" * 20),
            forward_shares=forward_shares,
            rng=rng,
        )
        assert len(blob) == onion_size(length, hops, shares)

    def test_share_bytes_constant(self):
        from repro.core.onion import serialize_share
        from repro.crypto.shamir import Share

        share = Share(index=1, payload=b"\x00" * 32, threshold=2)
        assert len(serialize_share(share)) == SHARE_BYTES


class TestSchemeCosts:
    def test_ordering(self):
        """More machinery costs more bytes, in the expected order."""
        central = centralized_cost()
        disjoint = multipath_cost(3, 6, joint=False)
        joint = multipath_cost(3, 6, joint=True)
        share = key_share_cost(8, 6)
        assert central.total_bytes < disjoint.total_bytes
        assert disjoint.total_bytes < joint.total_bytes
        assert joint.total_bytes < share.total_bytes
        assert share.messages > joint.messages  # shares cost messages

    def test_holder_counts(self):
        assert centralized_cost().holders == 1
        assert multipath_cost(4, 5, joint=True).holders == 20
        assert key_share_cost(6, 5).holders == 30

    def test_joint_message_count_scales_with_k_squared(self):
        small = multipath_cost(2, 4, joint=True)
        large = multipath_cost(4, 4, joint=True)
        # (l-1) * k^2 dominates: 3*16 vs 3*4.
        assert large.messages > 2 * small.messages

    def test_str_rendering(self):
        text = str(centralized_cost())
        assert "central" in text and "B" in text
