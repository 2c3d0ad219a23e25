"""Closed-form resilience equations (Eqs. 1-3, Lemma 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    ResiliencePair,
    centralized_resilience,
    disjoint_drop_resilience,
    disjoint_release_resilience,
    disjoint_resilience,
    eq1_release,
    eq2_disjoint_drop,
    eq3_joint_drop,
    evaluate_multipath_masks,
    joint_drop_resilience,
    joint_release_resilience,
    joint_resilience,
)

rates = st.floats(min_value=0.0, max_value=1.0)
small_ints = st.integers(min_value=1, max_value=20)


class TestCentralized:
    @given(rates)
    def test_both_equal_one_minus_p(self, p):
        pair = centralized_resilience(p)
        assert pair.release == pytest.approx(1 - p)
        assert pair.drop == pytest.approx(1 - p)
        assert pair.release == pair.drop


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
        pair = joint_resilience(p, k, l)
        assert pair.release + pair.drop > 1.0

    def test_lemma1_boundary(self):
        # At exactly p = 0.5, Rr + Rd == 1 for k == l symmetric cases.
        pair = joint_resilience(0.5, 2, 2)
        assert pair.release + pair.drop == pytest.approx(1.0)


class TestHelpers:
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


def every_mask(k, l):
    """All ``2^(k*l)`` malicious patterns of a ``k x l`` grid, one per trial."""
    cells = list(itertools.product((False, True), repeat=k * l))
    return np.array(cells, dtype=bool).reshape(len(cells), k, l)


class TestMultipathMasks:
    """``evaluate_multipath_masks`` is the one statement of the static attack
    rules; weighting every malicious pattern of a small grid by its
    probability must give Eqs. 1-3 exactly."""

    SHAPES = [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (2, 4)]

    @pytest.mark.parametrize("joint", [False, True], ids=["disjoint", "joint"])
    @pytest.mark.parametrize("k,l", SHAPES)
    def test_enumeration_equals_the_closed_forms(self, k, l, joint):
        masks = every_mask(k, l)
        release, drop = evaluate_multipath_masks(masks, joint)
        marked = masks.reshape(len(masks), -1).sum(axis=1)
        for p in (0.1, 0.3, 0.5, 0.8):
            weight = p**marked * (1 - p) ** (k * l - marked)
            drop_form = eq3_joint_drop if joint else eq2_disjoint_drop
            assert 1 - weight[release].sum() == pytest.approx(
                eq1_release(p, k, l), abs=1e-12
            )
            assert 1 - weight[drop].sum() == pytest.approx(
                drop_form(p, k, l), abs=1e-12
            )

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_a_single_path(self, l):
        # One path: release needs every holder, a drop needs any one, and
        # the two drop rules coincide (each column is one holder).
        masks = every_mask(1, l)
        for joint in (False, True):
            release, drop = evaluate_multipath_masks(masks, joint)
            assert release.tolist() == masks.all(axis=(1, 2)).tolist()
            assert drop.tolist() == masks.any(axis=(1, 2)).tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_single_column(self, k):
        # One column: any malicious replica releases, a drop needs them all.
        masks = every_mask(k, 1)
        for joint in (False, True):
            release, drop = evaluate_multipath_masks(masks, joint)
            assert release.tolist() == masks.any(axis=(1, 2)).tolist()
            assert drop.tolist() == masks.all(axis=(1, 2)).tolist()

    def test_the_release_rule_does_not_depend_on_the_drop_rule(self):
        masks = every_mask(3, 3)
        disjoint_release, _ = evaluate_multipath_masks(masks, joint=False)
        joint_release, _ = evaluate_multipath_masks(masks, joint=True)
        assert disjoint_release.tolist() == joint_release.tolist()

    def test_a_joint_drop_is_a_disjoint_drop(self):
        # A fully malicious column cuts every path, not the other way round.
        masks = every_mask(3, 3)
        _, disjoint_drop = evaluate_multipath_masks(masks, joint=False)
        _, joint_drop = evaluate_multipath_masks(masks, joint=True)
        assert not (joint_drop & ~disjoint_drop).any()
        assert (disjoint_drop & ~joint_drop).any()

    @pytest.mark.parametrize("joint", [False, True], ids=["disjoint", "joint"])
    def test_trials_are_decided_one_by_one(self, joint):
        masks = np.random.default_rng(5).random((40, 3, 4)) < 0.4
        release, drop = evaluate_multipath_masks(masks, joint)
        for trial, mask in enumerate(masks):
            one_release, one_drop = evaluate_multipath_masks(mask[None], joint)
            assert (one_release[0], one_drop[0]) == (release[trial], drop[trial])

    def test_no_trials_give_empty_flags(self):
        release, drop = evaluate_multipath_masks(np.zeros((0, 2, 3), bool), False)
        assert release.shape == drop.shape == (0,)
