"""The finite-population attack kernels against their exact answer.

The kernels draw from per-batch numpy streams; what their estimates
converge to is :func:`repro.core.analysis.finite_resilience`.  So the
contract is *statistical*: every measured channel's Wilson interval at
z = 3.29 holds the exact value on pinned seeds (``tests/fig6_exact.py``;
deterministic — a pinned seed either always passes or always fails).
Degenerate rates (p = 0, p = 1) must come out *exactly*, and the mask
sampler's combinatorial invariants are checked directly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fig6_exact
from repro.core.schemes import (
    CentralizedScheme,
    NodeDisjointScheme,
    NodeJointScheme,
)
from repro.experiments.attack_kernels import (
    CentralAttackBatch,
    MultipathAttackBatch,
    _malicious_grid_slabs,
    _smallest_cells,
    attack_batch_for,
    malicious_count,
    place_malicious_counts,
)
from repro.core.analysis import evaluate_multipath_masks, finite_resilience
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import SweepPoolExecutor
from repro.scenarios.runners import get_runner


def _sample_masks(generator, trials, population, marked, replication, path_length):
    """Masks in the kernel's own draw order: hypergeometric counts, then keys."""
    cells = replication * path_length
    slabs = [
        _smallest_cells(keys, counts)
        for counts, keys in _malicious_grid_slabs(
            generator, trials, population, marked, cells, slab_trials=max(1, trials)
        )
    ]
    masks = np.concatenate(slabs) if slabs else np.zeros((0, cells), dtype=bool)
    return masks.reshape(-1, replication, path_length)


class TestMaskSampler:
    def test_exact_marking_when_grid_covers_population(self):
        # c == N: every marked node lands in the grid, so each trial's
        # mask holds exactly round(N * p) ones.
        generator = np.random.default_rng(7)
        marked = malicious_count(24, 0.25)
        masks = _sample_masks(generator, 200, 24, marked, 4, 6)
        assert masks.shape == (200, 4, 6)
        assert (masks.reshape(200, -1).sum(axis=1) == marked).all()

    def test_mean_count_tracks_hypergeometric(self):
        generator = np.random.default_rng(11)
        masks = _sample_masks(generator, 4000, 100, 30, 2, 3)
        mean = masks.reshape(4000, -1).sum(axis=1).mean()
        assert mean == pytest.approx(6 * 30 / 100, abs=0.1)

    def test_zero_trials_give_an_empty_mask(self):
        generator = np.random.default_rng(7)
        for marked in (0, 30, 100):
            masks = _sample_masks(generator, 0, 100, marked, 2, 3)
            assert masks.shape == (0, 2, 3) and masks.dtype == bool
        for joint in (False, True):
            assert MultipathAttackBatch(0.3, 100, 2, 3, joint)(generator, 0) == (0, 0)

    def test_zero_and_full_rates_are_exact(self):
        generator = np.random.default_rng(7)
        for joint in (False, True):
            assert MultipathAttackBatch(0.0, 100, 3, 4, joint)(generator, 50) == (50, 50)
            assert MultipathAttackBatch(1.0, 100, 3, 4, joint)(generator, 50) == (0, 0)

    def test_grid_larger_than_population_rejected(self):
        generator = np.random.default_rng(7)
        with pytest.raises(ValueError, match="cannot supply"):
            MultipathAttackBatch(0.2, 10, 3, 4, False)(generator, 10)

    def test_predicates_match_scalar_definitions(self):
        # One hand-built 2x3 mask exercising all three predicates.
        mask = np.array([[[True, False, True], [False, True, False]]])
        release, drop_joint = evaluate_multipath_masks(mask, joint=True)
        _, drop_disjoint = evaluate_multipath_masks(mask, joint=False)
        # Every column has a malicious holder -> release succeeds.
        assert release[0]
        # No column is fully malicious -> joint drop fails.
        assert not drop_joint[0]
        # Both rows contain a malicious holder -> disjoint drop succeeds.
        assert drop_disjoint[0]


class _StubGenerator:
    """Returns prepared placement keys instead of drawing them."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys


@st.composite
def _placements(draw):
    """``(seed, counts, k, l)`` with counts covering ``0`` and ``k * l``."""
    replication = draw(st.integers(1, 5))
    path_length = draw(st.integers(1, 8))
    cells = replication * path_length
    counts = draw(
        st.lists(
            st.one_of(st.sampled_from((0, cells)), st.integers(0, cells)),
            min_size=1,
            max_size=12,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return seed, np.array(counts), replication, path_length


class TestPlacement:
    """Threshold placement ≡ full ranking; ties never lose or add a cell."""

    @given(_placements())
    def test_equals_double_argsort_on_tie_free_keys(self, placement):
        seed, counts, replication, path_length = placement
        keys = np.random.default_rng(seed).random(
            (len(counts), replication * path_length)
        )
        ranks = keys.argsort(axis=1).argsort(axis=1)
        reference = (ranks < counts[:, None]).reshape(
            len(counts), replication, path_length
        )
        mask = place_malicious_counts(
            np.random.default_rng(seed), counts, replication, path_length
        )
        assert mask.dtype == bool
        assert (mask == reference).all()

    @given(_placements(), st.integers(1, 3))
    def test_exact_counts_under_heavy_ties(self, placement, levels):
        seed, counts, replication, path_length = placement
        # At most ``levels`` distinct key values per row; ``levels == 1``
        # is the all-equal row.
        keys = (
            np.random.default_rng(seed).integers(
                0, levels, size=(len(counts), replication * path_length)
            )
            / 4.0
        )
        mask = place_malicious_counts(
            _StubGenerator(keys), counts, replication, path_length
        )
        assert (mask.sum(axis=(1, 2)) == counts).all()
        flat = mask.reshape(len(counts), -1)
        for row, count in enumerate(counts):
            # The documented rule: smallest keys, lowest cell index first.
            expected = np.argsort(keys[row], kind="stable")[:count]
            assert set(np.flatnonzero(flat[row])) == set(expected)

    def test_all_equal_row_marks_the_leading_cells(self):
        keys = np.full((1, 6), 0.5)
        mask = place_malicious_counts(
            _StubGenerator(keys), np.array([4]), 2, 3
        )
        assert mask.reshape(-1).tolist() == [True] * 4 + [False] * 2


class TestRankRule:
    """The batch's rank rule ≡ the mask path, on the same keys, ties included."""

    # The default 100 examples miss a dropped drop-key tie check about
    # half the time; 300 caught it on every run tried.
    @settings(max_examples=300)
    @given(_placements())
    def test_flags_equal_mask_path(self, placement):
        seed, counts, replication, path_length = placement
        shape = (len(counts), replication * path_length)
        generator = np.random.default_rng(seed)
        # Tie-free keys, then at most 3, 2 and 1 (all-equal) values a row.
        for keys in [generator.random(shape)] + [
            generator.integers(0, levels, size=shape) / 4.0 for levels in (3, 2, 1)
        ]:
            mask = place_malicious_counts(
                _StubGenerator(keys), counts, replication, path_length
            )
            for joint in (False, True):
                release, drop = evaluate_multipath_masks(mask, joint)
                batch = MultipathAttackBatch(
                    0.5, 100, replication, path_length, joint
                )
                flags = batch.ranked_successes(keys, counts)
                assert flags[0].tolist() == release.tolist()
                assert flags[1].tolist() == drop.tolist()

    def test_batch_builds_no_mask(self):
        # The p = 0.40 node-joint plan of fig6a@1000: one slab of 100 x 9,955
        # float64 keys.  Sorting it and marking a (trials, k, l) mask peaks
        # above twice the slab; deciding by rank adds ~13%.  The bound sits
        # between the two so numpy's reduction temporaries cannot cross it.
        slab_bytes = 100 * 11 * 905 * 8
        batch = MultipathAttackBatch(0.4, 10_000, 11, 905, joint=True)
        tracemalloc.start()
        try:
            batch(np.random.default_rng(2017), 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * slab_bytes


class TestBatchUnits:
    def test_factory_dispatch(self):
        assert isinstance(
            attack_batch_for(CentralizedScheme(), 0.1, 500), CentralAttackBatch
        )
        disjoint = attack_batch_for(NodeDisjointScheme(2, 3), 0.1, 500)
        joint = attack_batch_for(NodeJointScheme(2, 3), 0.1, 500)
        assert isinstance(disjoint, MultipathAttackBatch) and not disjoint.joint
        assert isinstance(joint, MultipathAttackBatch) and joint.joint
        with pytest.raises(TypeError, match="no attack batch unit for object"):
            attack_batch_for(object(), 0.1, 500)

    def test_degenerate_rates_are_exact(self):
        engine = TrialEngine()
        for scheme in (
            CentralizedScheme(),
            NodeDisjointScheme(2, 3),
            NodeJointScheme(2, 3),
        ):
            for rate, resisted in ((0.0, 40), (1.0, 0)):
                batch = attack_batch_for(scheme, rate, 200)
                result = engine.run_batched(
                    batch, trials=40, seed=5, label="deg", channels=2
                )
                # p=0: no attack ever succeeds; p=1: both always succeed,
                # and the exact form says so to the bit.
                assert [e.successes for e in result.estimates] == [resisted] * 2
                exact = finite_resilience(scheme.name, rate, 2, 3, 200)
                assert (exact.release, exact.drop) == (resisted / 40,) * 2

    def test_counts_deterministic_and_executor_independent(self):
        batch = MultipathAttackBatch(0.3, 400, 3, 4, joint=True)
        reference = TrialEngine().run_batched(
            batch, trials=300, seed=17, label="det", channels=2, batch_size=64
        )
        again = TrialEngine().run_batched(
            batch, trials=300, seed=17, label="det", channels=2, batch_size=64
        )
        assert again == reference
        with SweepPoolExecutor(jobs=2) as executor:
            pooled = TrialEngine(backend=executor).run_batched(
                batch, trials=300, seed=17, label="det", channels=2, batch_size=64
            )
        assert pooled == reference

    @pytest.mark.parametrize("joint", [False, True])
    def test_sub_slabbing_is_invisible(self, monkeypatch, joint):
        # Forcing tiny memory slabs must not change a batch's counts:
        # the slab partition is a pure function of the batch shape.
        import repro.experiments.attack_kernels as kernels

        batch = MultipathAttackBatch(0.25, 300, 2, 3, joint=joint)
        whole = batch(np.random.default_rng(3), 500)
        monkeypatch.setattr(kernels, "MAX_SLAB_ELEMENTS", 6)
        slabbed = batch(np.random.default_rng(3), 500)
        assert slabbed == whole


def _fig6_point(scheme_name, p, trials, seed, **extra):
    return get_runner("attack_resilience")(
        {"scheme": scheme_name, "p": p, **extra}, trials, seed, TrialEngine()
    )


class TestKernelMatchesFiniteForm:
    """Pinned-seed Wilson intervals around the exact finite-N answer."""

    @pytest.mark.parametrize("scheme_name", ["central", "disjoint", "joint"])
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_point_estimates_bracket_the_exact_value(self, scheme_name, p):
        point = _fig6_point(scheme_name, p, 400, 2017, population_size=400)
        exact = finite_resilience(
            scheme_name, p, point["replication"], point["path_length"], 400
        )
        for channel in ("release", "drop"):
            assert fig6_exact.bracketed(
                point["measured"][channel], getattr(exact, channel)
            ), f"{scheme_name} p={p} {channel}"

    def test_the_kernel_tracks_the_analytic_curve(self):
        # Small population, moderate p: the estimates near the closed form.
        point = _fig6_point("joint", 0.2, 500, 99, population_size=600)
        assert point["measured"]["release"]["estimate"] == pytest.approx(
            point["analytic_release"], abs=0.07
        )
        assert point["measured"]["drop"]["estimate"] == pytest.approx(
            point["analytic_drop"], abs=0.07
        )

    @pytest.mark.parametrize("kind", ["attack_resilience", "sensitivity"])
    def test_a_kernel_parameter_is_refused(self, kind):
        params = {"scheme": "joint", "p": 0.1, "kernel": "vectorized"}
        if kind == "sensitivity":
            params.update(replication=2, path_length=3)
        refused = r"does not accept parameter\(s\) \['kernel'\]"
        with pytest.raises(ValueError, match=refused):
            get_runner(kind)(params, 10, 2017, TrialEngine())
