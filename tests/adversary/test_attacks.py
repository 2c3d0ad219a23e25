"""Static attack rules (§II-B, Eqs. 1-3) on hand-built holder grids.

The rules are stated once, in ``repro.core.analysis.evaluate_multipath_masks``;
these cases drive it through the schemes' ``evaluate_attacks``, the path the
adaptive game takes.
"""

import pytest

from repro.adversary.population import SybilPopulation
from repro.core.paths import HolderGrid, build_grid
from repro.core.schemes import NodeDisjointScheme, NodeJointScheme
from repro.util.rng import RandomSource


def population_with(malicious):
    population = SybilPopulation(0.0, RandomSource(1))
    population.force_malicious(malicious)
    return population


# A 2x3 grid: rows are paths, columns replicate layer keys.
GRID = HolderGrid(rows=(("a1", "a2", "a3"), ("b1", "b2", "b3")))
DISJOINT = NodeDisjointScheme(2, 3)
JOINT = NodeJointScheme(2, 3)


def outcome(scheme, malicious):
    return scheme.evaluate_attacks(GRID, population_with(malicious))


class TestReleaseAheadGrid:
    """Eq. 1: a malicious holder in every column; the same for both schemes."""

    def test_all_honest_resists(self):
        for scheme in (DISJOINT, JOINT):
            assert outcome(scheme, []).release_resisted

    def test_one_malicious_per_column_succeeds(self):
        for scheme in (DISJOINT, JOINT):
            assert not outcome(scheme, ["a1", "b2", "a3"]).release_resisted

    def test_one_clean_column_blocks(self):
        # Column 2 has no malicious holder: the Fig. 2(b) K3 case.
        for scheme in (DISJOINT, JOINT):
            assert outcome(scheme, ["a1", "b1", "a3", "b3"]).release_resisted

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            HolderGrid(rows=())
        with pytest.raises(ValueError):
            HolderGrid(rows=((),))


class TestDropDisjoint:
    """Eq. 2: every path cut somewhere."""

    def test_all_honest_resists(self):
        assert outcome(DISJOINT, []).drop_resisted

    def test_every_path_cut_succeeds(self):
        assert not outcome(DISJOINT, ["a2", "b3"]).drop_resisted

    def test_one_clean_path_survives(self):
        assert outcome(DISJOINT, ["a1", "a2", "a3"]).drop_resisted


class TestDropJoint:
    """Eq. 3: some column entirely malicious."""

    def test_scattered_malicious_cannot_drop(self):
        # The paper's §III-C example: (H1,1, H2,2, H1,3) malicious drops
        # the node-disjoint scheme but not the node-joint scheme.
        malicious = ["a1", "b2", "a3"]
        assert not outcome(DISJOINT, malicious).drop_resisted
        assert outcome(JOINT, malicious).drop_resisted

    def test_full_column_drops(self):
        assert not outcome(JOINT, ["a2", "b2"]).drop_resisted

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            HolderGrid(rows=((), ()))


class TestReleaseAheadSinglePath:
    """One path (``k = 1``): every column is one holder, so the static rule
    releases at the start only when the whole path is malicious."""

    PATH = HolderGrid(rows=(("h1", "h2", "h3", "h4", "h5"),))

    def evaluate(self, malicious):
        return NodeDisjointScheme(1, 5).evaluate_attacks(
            self.PATH, population_with(malicious)
        )

    def test_fully_malicious_path_releases_at_start(self):
        assert not self.evaluate(["h1", "h2", "h3", "h4", "h5"]).release_resisted

    def test_malicious_suffix_does_not_release_at_start(self):
        # Fig. 2(b)'s K2: the suffix only sees the onion once it arrives.
        assert self.evaluate(["h4", "h5"]).release_resisted

    def test_broken_continuity_blocks(self):
        # Fig. 2(b)'s K3: malicious head and middle, honest holders between.
        assert self.evaluate(["h1", "h3"]).release_resisted

    def test_any_malicious_holder_drops(self):
        assert not self.evaluate(["h3"]).drop_resisted


class TestGridCases:
    """Each malicious pattern of ``GRID`` against both schemes: expected
    ``(release_resisted, disjoint drop_resisted, joint drop_resisted)``."""

    CASES = {
        "none": ([], (True, True, True)),
        "every-holder": (
            ["a1", "a2", "a3", "b1", "b2", "b3"],
            (False, False, False),
        ),
        "one-full-path": (["a1", "a2", "a3"], (False, True, True)),
        "one-full-column": (["a2", "b2"], (True, False, False)),
        "scattered-cover": (["a1", "b2", "a3"], (False, False, True)),
        "both-paths-cut": (["a1", "b3"], (True, False, True)),
        "one-holder": (["b2"], (True, True, True)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_case(self, case):
        malicious, (release, disjoint_drop, joint_drop) = self.CASES[case]
        disjoint = outcome(DISJOINT, malicious)
        joint = outcome(JOINT, malicious)
        assert disjoint.release_resisted is release
        assert joint.release_resisted is release
        assert disjoint.drop_resisted is disjoint_drop
        assert joint.drop_resisted is joint_drop


@pytest.mark.parametrize(
    "scheme", [NodeDisjointScheme(3, 4), NodeJointScheme(3, 4)], ids=repr
)
def test_sampled_grids_follow_the_rules_of_section_2b(scheme):
    """The rules of §II-B written out per holder, over sampled grids."""
    population_ids = [f"n{i}" for i in range(300)]
    rng = RandomSource(17, "attack-rules")
    for trial in range(200):
        sybil = SybilPopulation(0.35, rng.fork(f"sybil{trial}"))
        sybil.mark_population(population_ids)
        grid = build_grid(population_ids, 3, 4, rng.fork(f"grid{trial}"))
        bad = [[sybil.is_malicious(holder) for holder in row] for row in grid.rows]
        columns = list(zip(*bad))
        released = all(any(column) for column in columns)
        if scheme.joint:
            dropped = any(all(column) for column in columns)
        else:
            dropped = all(any(row) for row in bad)
        result = scheme.evaluate_attacks(grid, sybil)
        assert result.release_resisted is not released
        assert result.drop_resisted is not dropped
