"""Closed-form resilience equations (Eqs. 1-3, Lemma 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    ResiliencePair,
    centralized_resilience,
    disjoint_drop_resilience,
    disjoint_release_resilience,
    disjoint_resilience,
    joint_drop_resilience,
    joint_release_resilience,
    joint_resilience,
    lemma1_holds,
    required_nodes,
)

rates = st.floats(min_value=0.0, max_value=1.0)
small_ints = st.integers(min_value=1, max_value=20)


class TestCentralized:
    @given(rates)
    def test_both_equal_one_minus_p(self, p):
        pair = centralized_resilience(p)
        assert pair.release == pytest.approx(1 - p)
        assert pair.drop == pytest.approx(1 - p)
        assert pair.balanced


class TestDisjoint:
    def test_hand_computed_release(self):
        # p=0.5, k=1, l=1: Rr = 1 - (1 - 0.5) = 0.5
        assert disjoint_release_resilience(0.5, 1, 1) == pytest.approx(0.5)
        # p=0.5, k=2, l=2: column captured = 1-0.25 = 0.75; Rr = 1-0.5625
        assert disjoint_release_resilience(0.5, 2, 2) == pytest.approx(0.4375)

    def test_hand_computed_drop(self):
        # p=0.5, k=2, l=2: path cut = 0.75; Rd = 1 - 0.75^2
        assert disjoint_drop_resilience(0.5, 2, 2) == pytest.approx(0.4375)

    def test_symmetry_when_k_equals_l(self):
        # With k == l the two expressions coincide.
        pair = disjoint_resilience(0.3, 4, 4)
        assert pair.release == pytest.approx(pair.drop)

    @given(rates, small_ints, small_ints)
    def test_release_within_unit_interval(self, p, k, l):
        assert 0.0 <= disjoint_release_resilience(p, k, l) <= 1.0

    @given(rates, small_ints, small_ints)
    def test_longer_paths_help_release(self, p, k, l):
        shorter = disjoint_release_resilience(p, k, l)
        longer = disjoint_release_resilience(p, k, l + 1)
        assert longer >= shorter - 1e-12

    @given(rates, small_ints, small_ints)
    def test_more_replicas_help_drop(self, p, k, l):
        fewer = disjoint_drop_resilience(p, k, l)
        more = disjoint_drop_resilience(p, k + 1, l)
        assert more >= fewer - 1e-12

    def test_degenerate_equals_centralized(self):
        pair = disjoint_resilience(0.3, 1, 1)
        assert pair.release == pytest.approx(0.7)
        assert pair.drop == pytest.approx(0.7)

    def test_each_mechanism_earns_its_place(self):
        """Onion layering turns one point of trust into l of them (Rr);
        replication rescues Rd at an Rr price."""
        for p in (0.05, 0.15, 0.25, 0.35, 0.45):
            assert disjoint_release_resilience(p, 1, 8) > centralized_resilience(p).release
            single, replicated = disjoint_resilience(p, 1, 6), disjoint_resilience(p, 3, 6)
            assert replicated.drop > single.drop
            assert replicated.release <= single.release


class TestJoint:
    def test_release_matches_disjoint(self):
        for p in (0.1, 0.3, 0.45):
            assert joint_release_resilience(p, 3, 5) == pytest.approx(
                disjoint_release_resilience(p, 3, 5)
            )

    def test_hand_computed_drop(self):
        # p=0.5, k=2, l=3: Rd = (1 - 0.25)^3
        assert joint_drop_resilience(0.5, 2, 3) == pytest.approx(0.75 ** 3)

    @given(rates, small_ints, small_ints)
    def test_joint_drop_dominates_disjoint(self, p, k, l):
        assert (
            joint_drop_resilience(p, k, l)
            >= disjoint_drop_resilience(p, k, l) - 1e-12
        )

    @given(
        st.floats(min_value=0.0, max_value=0.499),
        small_ints,
        small_ints,
    )
    @settings(max_examples=200)
    def test_lemma1_for_p_below_half(self, p, k, l):
        """Lemma 1: Rr + Rd > 1 whenever p < 0.5 (node-joint scheme)."""
        assert lemma1_holds(p, k, l)

    def test_lemma1_boundary(self):
        # At exactly p = 0.5, Rr + Rd == 1 for k == l symmetric cases.
        pair = joint_resilience(0.5, 2, 2)
        assert pair.release + pair.drop == pytest.approx(1.0)


class TestHelpers:
    def test_required_nodes(self):
        assert required_nodes(4, 7) == 28

    def test_worst(self):
        pair = ResiliencePair(release=0.9, drop=0.7)
        assert pair.worst == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            disjoint_release_resilience(1.5, 2, 2)
        with pytest.raises(ValueError):
            disjoint_release_resilience(0.5, 0, 2)
        with pytest.raises(TypeError):
            joint_drop_resilience(0.5, 2.0, 2)
